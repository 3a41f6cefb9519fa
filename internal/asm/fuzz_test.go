package asm_test

import (
	"testing"

	"ferrum/internal/asm"
	"ferrum/internal/backend"
	"ferrum/internal/rodinia"
)

// FuzzParseRoundTrip: whatever Parse accepts, its printed form parses again
// and prints the same text, so a program survives any number of
// print/parse trips. Seeded with the compiled raw Rodinia programs and two
// labels that used to print unparsably: one whose name ends in a colon
// ("0::"), and one with a carriage return inside, which the directive
// reader splits as whitespace.
func FuzzParseRoundTrip(f *testing.F) {
	f.Add("0::\nmovb 0,0")
	f.Add("0\r0:\nmovb 0,0")
	for _, b := range rodinia.All() {
		inst, err := b.Instantiate(1, 1)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := backend.Compile(inst.Mod)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Parse(src)
		if err != nil {
			return
		}
		once := p.String()
		q, err := asm.Parse(once)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, once)
		}
		if twice := q.String(); twice != once {
			t.Fatalf("print/parse round trip is not stable:\nfirst:\n%s\nsecond:\n%s", once, twice)
		}
	})
}
