package ir_test

import (
	"testing"

	"ferrum/internal/ir"
	"ferrum/internal/rodinia"
)

// FuzzIRParseRoundTrip: whatever Parse accepts, its printed form parses
// again and prints the same text. Seeded with the Rodinia modules.
func FuzzIRParseRoundTrip(f *testing.F) {
	for _, b := range rodinia.All() {
		f.Add(b.Source())
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		once := m.String()
		n, err := ir.Parse(once)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, once)
		}
		if twice := n.String(); twice != once {
			t.Fatalf("print/parse round trip is not stable:\nfirst:\n%s\nsecond:\n%s", once, twice)
		}
	})
}
