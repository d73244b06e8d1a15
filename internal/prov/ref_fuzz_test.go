package prov

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// goldenItemName matches a uuid_version item name as the goldens print it.
var goldenItemName = regexp.MustCompile(`[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}_[0-9]+`)

// goldenItemNames collects the distinct item names the repository's goldens
// print: the examples', the translog leaves' and the envelope's.
func goldenItemNames(t testing.TB) []string {
	t.Helper()
	var names []string
	seen := make(map[string]bool)
	for _, pattern := range []string{
		"../../examples/*/testdata/*.golden",
		"../translog/testdata/*.golden",
		"../core/testdata/*.golden",
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range goldenItemName.FindAllString(string(data), -1) {
				if !seen[m] {
					seen[m] = true
					names = append(names, m)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no item names found in the goldens")
	}
	return names
}

// FuzzParseRef: ParseRef never panics, and whatever it accepts prints back
// byte for byte, so one ref has exactly one item name.
func FuzzParseRef(f *testing.F) {
	for _, name := range goldenItemNames(f) {
		f.Add(name)
	}
	for _, alias := range refAliases {
		f.Add(alias)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRef(s)
		if err != nil {
			return
		}
		if got := r.String(); got != s {
			t.Fatalf("ParseRef(%q) = %v, which prints as %q", s, r, got)
		}
	})
}

// refAliases are spellings of 0123…_5 that strconv and a case-blind hex
// decoder accept but Ref.String never prints.
var refAliases = []string{
	"01234567-89ab-4def-8123-456789abcdef_05",
	"01234567-89ab-4def-8123-456789abcdef_+5",
	"01234567-89AB-4DEF-8123-456789ABCDEF_5",
	"01234567-89ab-4def-8123-456789abcdeF_5",
	"01234567-89ab-4def-8123-456789abcdef_005",
}

// TestParseRefRejectsAliases: each alias of a canonical name is refused,
// and the canonical name itself parses.
func TestParseRefRejectsAliases(t *testing.T) {
	const canonical = "01234567-89ab-4def-8123-456789abcdef_5"
	want, err := ParseRef(canonical)
	if err != nil || want.Version != 5 {
		t.Fatalf("ParseRef(%q) = %v, %v", canonical, want, err)
	}
	for _, alias := range refAliases {
		if r, err := ParseRef(alias); err == nil {
			t.Errorf("ParseRef(%q) = %v, want an error: it aliases %s", alias, r, canonical)
		}
	}
}

// TestGoldenItemNamesRoundTrip: every item name a golden prints parses and
// prints back unchanged.
func TestGoldenItemNamesRoundTrip(t *testing.T) {
	for _, name := range goldenItemNames(t) {
		r, err := ParseRef(name)
		if err != nil {
			t.Fatalf("golden item name %q: %v", name, err)
		}
		if r.String() != name {
			t.Fatalf("golden item name %q prints back as %q", name, r)
		}
	}
}

// BenchmarkParseRef parses the goldens' item names, one per operation: the
// decode every SELECT result row and cross reference goes through.
func BenchmarkParseRef(b *testing.B) {
	names := goldenItemNames(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := ParseRef(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
