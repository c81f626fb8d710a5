package policy

import (
	"strings"
	"testing"
)

// FuzzParseCommunity checks that every community that parses renders to a
// string that parses back to the same community.
func FuzzParseCommunity(f *testing.F) {
	for _, s := range []string{
		"65000:120", "0:0", "65535:65535", "metro:FRA", "no-export-metro:SIN",
		"no-peer-metro:AAA", "64910:3822", "", "65000", "x:y", "70000:1", "metro:fra",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCommunity(s)
		if err != nil {
			return
		}
		back, err := ParseCommunity(c.String())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, c.String(), err)
		}
		if back != c {
			t.Fatalf("%q: round trip through %q = %v, want %v", s, c.String(), back, c)
		}
	})
}

// FuzzPolicyParse feeds arbitrary policy text to the parser. Malformed
// input may fail but not panic, and a policy that parses must re-parse from
// its canonical form with the same hash.
func FuzzPolicyParse(f *testing.F) {
	f.Add(testPolicy)
	for _, s := range []string{
		"policy p\nimport -> accept\n",
		"policy p\nimport metro FRA -> reject\n",
		"policy p\nexport community no-export-metro:FRA -> strip-community no-export-metro:FRA accept\n",
		"import -> accept\n",
		"policy p\nimport class nonsense -> accept",
		"policy p\nimport -> set-local-pref x",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(strings.NewReader(text), "fuzz")
		if err != nil {
			return
		}
		canon := p.Canonical()
		back, err := Parse(strings.NewReader(canon), "canonical")
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		if back.Hash() != p.Hash() {
			t.Fatalf("hash changed across the canonical round trip:\n%s\nvs\n%s", canon, back.Canonical())
		}
	})
}
