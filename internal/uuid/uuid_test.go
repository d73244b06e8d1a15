package uuid

import (
	"testing"
	"testing/quick"

	"passcloud/internal/sim"
)

func TestNewShape(t *testing.T) {
	r := sim.NewRand(1)
	u := New(r)
	if u.IsZero() {
		t.Fatal("fresh uuid is zero")
	}
	if v := u[6] >> 4; v != 4 {
		t.Fatalf("version nibble = %d, want 4", v)
	}
	if variant := u[8] >> 6; variant != 0b10 {
		t.Fatalf("variant bits = %b, want 10", variant)
	}
}

func TestStringLength(t *testing.T) {
	r := sim.NewRand(2)
	s := New(r).String()
	if len(s) != 36 {
		t.Fatalf("len = %d, want 36: %s", len(s), s)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := New(sim.NewRand(42))
	b := New(sim.NewRand(42))
	if a != b {
		t.Fatalf("same seed produced %s and %s", a, b)
	}
}

func TestUniqueness(t *testing.T) {
	r := sim.NewRand(3)
	seen := make(map[UUID]bool)
	for i := 0; i < 10000; i++ {
		u := New(r)
		if seen[u] {
			t.Fatalf("duplicate uuid after %d draws", i)
		}
		seen[u] = true
	}
}

func TestParseRoundTrip(t *testing.T) {
	r := sim.NewRand(4)
	f := func(uint8) bool {
		u := New(r)
		p, err := Parse(u.String())
		return err == nil && p == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "not-a-uuid", "0123456789abcdef0123456789abcdef",
		"zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz", "00000000-0000-0000-0000-0000000000"} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestStringFormAndAllocations(t *testing.T) {
	u := UUID{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0x4c, 0xde, 0x8f, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd}
	if got, want := u.String(), "01234567-89ab-4cde-8f01-23456789abcd"; got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
	if got := string(u.AppendTo([]byte("tmp/"))); got != "tmp/"+u.String() {
		t.Fatalf("AppendTo = %s", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = u.String() }); got != 1 {
		t.Fatalf("String = %v allocations, want 1", got)
	}
}
