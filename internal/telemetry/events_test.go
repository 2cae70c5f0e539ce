package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// allEvents holds one populated instance of every event type; tests that
// must cover the full event vocabulary iterate it.
var allEvents = []Event{
	CapWritten{T: 1.5, Node: "sim", CapW: 110.5, Short: true},
	PolicyDecision{T: 2, Policy: "seesaw", Step: 3, PrevSimCapW: 110, PrevAnaCapW: 110,
		SimCapW: 115, AnaCapW: 105, ShiftW: 5, Direction: "to-sim"},
	SyncBarrier{T: 3, Step: 4, WallS: 1.25, SimS: 1.25, AnaS: 1.0, Slack: 0.2, Overhead: 0.001},
	BudgetViolation{T: 4, Node: "ana", ObservedW: 120, LimitW: 110},
	ThrottleEngaged{T: 5, Node: "sim", DemandW: 180, AllowedW: 150},
	BudgetShare{T: 6, Epoch: 2, Job: "jobA", BudgetW: 7040, Share: 0.5},
	CampaignCell{Campaign: "fig3a", Key: "rdf/seesaw/r0", Status: "ok", Seconds: 0.25, Done: 3, Total: 18},
	NodeKilled{T: 7, Node: 5, Role: "ana", Sync: 20, AliveSim: 4, AliveAna: 3},
	NodeDegraded{T: 8, Node: 2, Role: "sim", Sync: 10, Factor: 2},
	NodeRecovered{T: 9, Node: 2, Role: "sim", Sync: 25},
	StageStart{T: 10, Stage: "filter", Sync: 3},
	StageEnd{T: 11, Stage: "filter", Sync: 3, BusyS: 4.5},
	TransferVolume{T: 12, Edge: "sim->ana", Sync: 3, Bytes: 4816896, Seconds: 0.049},
}

// TestEncodeDecodeRoundTrip decodes every event type back to an
// identical value — the property the JSONL stream consumers rely on.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, e := range allEvents {
		t.Run(e.Kind(), func(t *testing.T) {
			line, err := Encode(e)
			if err != nil {
				t.Fatal(err)
			}
			// The wire form must be a single JSON object with the kind tag.
			var env struct {
				Kind string          `json:"kind"`
				Data json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(line, &env); err != nil {
				t.Fatalf("envelope not valid JSON: %v", err)
			}
			if env.Kind != e.Kind() {
				t.Errorf("envelope kind = %q, want %q", env.Kind, e.Kind())
			}
			got, err := Decode(line)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, e) {
				t.Errorf("round trip: got %#v, want %#v", got, e)
			}
		})
	}
}

// decodeErrorCases are lines Decode must reject, with the error text
// each must carry.
var decodeErrorCases = []struct {
	name string
	line string
	want string
}{
	{"garbage", "not json", "decode envelope"},
	{"unknown kind", `{"kind":"NoSuchEvent","data":{}}`, "unknown event kind"},
	{"bad payload", `{"kind":"CapWritten","data":{"t":"not-a-number"}}`, "decode CapWritten"},
}

func TestDecodeErrors(t *testing.T) {
	for _, tc := range decodeErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.line))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Decode(%q) err = %v, want containing %q", tc.line, err, tc.want)
			}
		})
	}
}

// TestKindsAreUnique guards against two event types claiming the same
// envelope tag, which would corrupt Decode dispatch.
func TestKindsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range allEvents {
		if seen[e.Kind()] {
			t.Errorf("duplicate event kind %q", e.Kind())
		}
		seen[e.Kind()] = true
	}
	if len(seen) != 13 {
		t.Errorf("expected 13 event kinds, have %d", len(seen))
	}
}

// FuzzDecode: no input panics Decode, and a line it accepts encodes to
// a line that decodes to the same event and encodes to the same bytes
// again.
func FuzzDecode(f *testing.F) {
	for _, e := range allEvents {
		line, err := Encode(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, tc := range decodeErrorCases {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := Decode(line)
		if err != nil {
			return
		}
		enc, err := Encode(e)
		if err != nil {
			t.Fatalf("Encode(%#v) from %q: %v", e, line, err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", enc, err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("re-decoded %#v, want %#v", again, e)
		}
		if enc2, err := Encode(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoded %q (%v), want %q", enc2, err, enc)
		}
	})
}
