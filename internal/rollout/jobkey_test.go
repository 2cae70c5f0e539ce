package rollout

import (
	"reflect"
	"slices"
	"testing"

	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
)

// episodeFields are the Spec fields jobKey leaves out on purpose: the
// episode parameters cosim takes per run (budget, constraints,
// telemetry hub) and the driver selector (jobKey only keys
// space-shared jobs).
var episodeFields = map[string]bool{
	"CapPerNode":  true,
	"Constraints": true,
	"Telemetry":   true,
	"Topology":    true,
}

// specLeaf is one settable value inside a Spec: a path of field
// indices, where -1 steps into a slice's first element.
type specLeaf struct {
	path []int
	name string
}

// specLeaves lists every leaf of t, recursing into structs and into
// slices of structs.
func specLeaves(t reflect.Type, path []int, name string) []specLeaf {
	switch {
	case t.Kind() == reflect.Struct:
		var out []specLeaf
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, specLeaves(f.Type, append(slices.Clone(path), i), name+"."+f.Name)...)
		}
		return out
	case t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Struct:
		return specLeaves(t.Elem(), append(slices.Clone(path), -1), name+"[0]")
	default:
		return []specLeaf{{path: path, name: name}}
	}
}

// setLeaf gives the leaf at path inside v a non-zero value, growing
// slices on the way to one element. It reports false for a leaf of a
// type it has no value for.
func setLeaf(v reflect.Value, path []int, samples map[reflect.Type]any) bool {
	for _, i := range path {
		if i < 0 {
			if v.Len() == 0 {
				v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			}
			v = v.Index(0)
		} else {
			v = v.Field(i)
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		s, ok := samples[v.Type()]
		if !ok {
			return false
		}
		v.Set(reflect.ValueOf(s))
	default:
		return false
	}
	return true
}

// TestJobKeyCoversSpec: setting any Spec field that shapes the job,
// down to each field of workload.Spec, of its analysis tasks and of the
// noise model, must change jobKey, or two different jobs would share
// one cached JobState. Setting an episode parameter or the driver
// selector must leave the key alone, so sweeps over them share the
// job's state. A new Spec field fails here until jobKey names it or it
// joins episodeFields.
func TestJobKeyCoversSpec(t *testing.T) {
	plan, err := fault.Parse("kill:1@2")
	if err != nil {
		t.Fatal(err)
	}
	samples := map[reflect.Type]any{
		reflect.TypeOf(plan):                     plan,
		reflect.TypeOf((*machine.ClassMap)(nil)): machine.MustParseClassMap("0:gpu"),
		reflect.TypeOf((*telemetry.Hub)(nil)):    telemetry.New(telemetry.Options{}),
	}
	base := Spec{}.jobKey()
	leaves := specLeaves(reflect.TypeOf(Spec{}), nil, "Spec")
	for _, lf := range leaves {
		var s Spec
		if !setLeaf(reflect.ValueOf(&s).Elem(), lf.path, samples) {
			t.Errorf("%s: no non-zero sample for its type; add one", lf.name)
			continue
		}
		top := reflect.TypeOf(Spec{}).Field(lf.path[0]).Name
		changed := s.jobKey() != base
		switch {
		case episodeFields[top] && changed:
			t.Errorf("%s is an episode parameter but changes jobKey: %q", lf.name, s.jobKey())
		case !episodeFields[top] && !changed:
			t.Errorf("%s does not change jobKey: two jobs differing only in it would share a cached JobState", lf.name)
		}
	}
	if len(leaves) < 20 {
		t.Fatalf("walked only %d Spec leaves; the walk is not recursing", len(leaves))
	}
}
