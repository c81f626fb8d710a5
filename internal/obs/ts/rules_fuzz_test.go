package ts

import (
	"reflect"
	"testing"
)

// FuzzParseRule feeds arbitrary lines to the rule grammar. Malformed input
// may fail but not panic, and whatever parses must re-parse from its
// String() rendering to an equal rule.
func FuzzParseRule(f *testing.F) {
	for _, s := range []string{
		"slo eu-latency: region.latency.p90{region=EMEA} > 40ms for 3 ticks",
		"load.unserved > 0",
		"site.share{site=fra} >= 50% for 2 ticks",
		"slo overload: load.max_util > 1 for 2 ticks",
		"slo x load.max_util > 1",
		"load.max_util > 1 for 2 buckets",
		"slo a b: load.max_util > 1 for 1 ticks",
		"load.max_util <= -1e-9 for 1 tick",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRule(line)
		if err != nil {
			return
		}
		back, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose rendering %q does not parse: %v", line, r, r.String(), err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("%q: round trip through %q = %+v, want %+v", line, r.String(), back, r)
		}
	})
}
