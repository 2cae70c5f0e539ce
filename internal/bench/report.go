package bench

import (
	"context"
	"fmt"
	"io"
)

// WriteReport runs every experiment in report order and writes a Markdown
// document with one fenced section per artifact to w. progress, when
// non-nil, is called with each experiment id as its section completes.
//
// The document depends only on the options' seeds and sizes, never on
// Jobs or scheduling: two reports produced with different concurrency
// are byte-identical. On error — including cancellation — the current
// section's fence is closed first, so a partial report is still valid
// Markdown.
func WriteReport(ctx context.Context, w io.Writer, o Options, progress func(id string)) error {
	if _, err := fmt.Fprintf(w, "# SeeSAw experiment report\n\nOptions: steps=%d runs=%d seed=%d (0 = experiment defaults)\n",
		o.Steps, o.Runs, o.BaseSeed); err != nil {
		return err
	}
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "\n## %s\n\n%s\n\n```\n", e.ID, e.Title); err != nil {
			return err
		}
		runErr := e.Run(ctx, o, w)
		if _, err := fmt.Fprintln(w, "```"); err != nil {
			return err
		}
		if runErr != nil {
			return fmt.Errorf("%s: %w", e.ID, runErr)
		}
		if progress != nil {
			progress(e.ID)
		}
	}
	return nil
}
