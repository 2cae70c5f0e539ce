package machine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ClassMap assigns device classes to node ids. The textual grammar is a
// comma-separated list of range assignments, compact enough for a flag
// (mirroring the fault-plan grammar):
//
//	0-511:cpu,512-575:gpu        // ranges are inclusive
//	5:gpu                        // single node
//
// Unmapped nodes get the default class (DefaultClass). A nil or empty
// map means a homogeneous cluster.
type ClassMap struct {
	// Ranges holds the assignments in parse order; ids never overlap.
	Ranges []ClassRange
}

// ClassRange maps the inclusive node-id interval [Lo, Hi] to a class.
type ClassRange struct {
	Lo, Hi int
	Class  string
}

// ParseClassMap parses the class-map grammar. It rejects malformed
// tokens, inverted or negative ranges, empty class names and
// overlapping assignments; class-name existence is checked later by
// Validate, against the built-in presets.
func ParseClassMap(s string) (*ClassMap, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	m := &ClassMap{}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return nil, fmt.Errorf("machine: empty class assignment in %q", s)
		}
		r, err := parseClassRange(tok)
		if err != nil {
			return nil, err
		}
		for _, prev := range m.Ranges {
			if r.Lo <= prev.Hi && prev.Lo <= r.Hi {
				return nil, fmt.Errorf("machine: class assignment %q overlaps %d-%d:%s",
					tok, prev.Lo, prev.Hi, prev.Class)
			}
		}
		m.Ranges = append(m.Ranges, r)
	}
	return m, nil
}

// parseClassRange parses one "LO-HI:CLASS" or "ID:CLASS" token.
func parseClassRange(tok string) (ClassRange, error) {
	ids, class, ok := strings.Cut(tok, ":")
	if !ok || class == "" {
		return ClassRange{}, fmt.Errorf("machine: class assignment %q is not ID:CLASS or LO-HI:CLASS", tok)
	}
	lo, hi, isRange := strings.Cut(ids, "-")
	if !isRange {
		hi = lo
	}
	loID, err := strconv.Atoi(lo)
	if err != nil {
		return ClassRange{}, fmt.Errorf("machine: bad node id %q in class assignment %q", lo, tok)
	}
	hiID, err := strconv.Atoi(hi)
	if err != nil {
		return ClassRange{}, fmt.Errorf("machine: bad node id %q in class assignment %q", hi, tok)
	}
	if loID < 0 {
		return ClassRange{}, fmt.Errorf("machine: negative node id %d in class assignment %q", loID, tok)
	}
	if hiID < loID {
		return ClassRange{}, fmt.Errorf("machine: inverted range %d-%d in class assignment %q", loID, hiID, tok)
	}
	return ClassRange{Lo: loID, Hi: hiID, Class: class}, nil
}

// MustParseClassMap is ParseClassMap for literals in tests and
// experiment definitions; it panics on error.
func MustParseClassMap(s string) *ClassMap {
	m, err := ParseClassMap(s)
	if err != nil {
		panic(err)
	}
	return m
}

// Empty reports whether the map assigns no classes (nil-safe).
func (m *ClassMap) Empty() bool { return m == nil || len(m.Ranges) == 0 }

// ClassAt returns the class assigned to node id, or "" when the node
// falls through to the default class (nil-safe).
func (m *ClassMap) ClassAt(id int) string {
	if m == nil {
		return ""
	}
	for _, r := range m.Ranges {
		if id >= r.Lo && id <= r.Hi {
			return r.Class
		}
	}
	return ""
}

// Classes returns the distinct class names the map references, sorted.
func (m *ClassMap) Classes() []string {
	if m.Empty() {
		return nil
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range m.Ranges {
		if !seen[r.Class] {
			seen[r.Class] = true
			names = append(names, r.Class)
		}
	}
	sort.Strings(names)
	return names
}

// Validate checks the map against a cluster of n nodes and a class
// resolver: every id must be in [0, n) and every name must resolve.
// known lists the resolvable names for the error message.
func (m *ClassMap) Validate(n int, resolve func(string) bool, known []string) error {
	if m.Empty() {
		return nil
	}
	for _, r := range m.Ranges {
		if r.Hi >= n {
			return fmt.Errorf("machine: class assignment %d-%d:%s exceeds cluster size %d",
				r.Lo, r.Hi, r.Class, n)
		}
		if resolve != nil && !resolve(r.Class) {
			return fmt.Errorf("machine: unknown class %q (have %s)", r.Class, strings.Join(known, ", "))
		}
	}
	return nil
}

// String renders the map back in the flag grammar; ParseClassMap
// round-trips it.
func (m *ClassMap) String() string {
	if m.Empty() {
		return ""
	}
	parts := make([]string, 0, len(m.Ranges))
	for _, r := range m.Ranges {
		if r.Lo == r.Hi {
			parts = append(parts, fmt.Sprintf("%d:%s", r.Lo, r.Class))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d:%s", r.Lo, r.Hi, r.Class))
		}
	}
	return strings.Join(parts, ",")
}
