package ir_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ferrum/internal/ir"
	"ferrum/internal/progen"
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

// fuzzMemSize and fuzzMaxSteps bound one FuzzIREquiv execution.
const (
	fuzzMemSize  = 64 << 10
	fuzzMaxSteps = 20_000
)

// FuzzIREquiv fuzzes the IR dispatch loop: whatever IR text parses and
// verifies, the block-segment loop (Run) and the per-instruction reference
// loop (RunReference) return equal RunResults, on the golden run and with
// one fault at the first, middle and last site. Each run gets the fuzzed
// arguments over a small memory image at rodinia.DataBase. Seeded with the
// FuzzIRParseRoundTrip corpus (the Rodinia modules, with their instances'
// arguments) and with generated branch-dense modules, with and without
// calls.
func FuzzIREquiv(f *testing.F) {
	for _, b := range rodinia.All() {
		inst, err := b.Instantiate(1, 1)
		if err != nil {
			f.Fatal(err)
		}
		var a [3]uint64
		copy(a[:], inst.Args)
		f.Add(b.Source(), a[0], a[1], a[2], uint8(7))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		mod, err := progen.Generate(rng, progen.Options{Stmts: 20, Calls: i%2 == 0, BranchDensity: 7})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mod.String(), uint64(rodinia.DataBase), uint64(rng.Int63n(1000)), uint64(rng.Int63n(1000)), uint8(13))
	}
	f.Fuzz(func(t *testing.T, src string, a0, a1, a2 uint64, bit uint8) {
		mod, err := ir.Parse(src)
		if err != nil {
			return
		}
		build := func() *ir.Interp {
			ip, err := ir.NewInterp(mod, fuzzMemSize)
			if err != nil {
				return nil
			}
			for s := uint64(0); s < 64; s++ {
				if err := ip.WriteWordImage(rodinia.DataBase+8*s, s*5+3); err != nil {
					t.Fatal(err)
				}
			}
			return ip
		}
		fast := build()
		if fast == nil {
			return // rejected by the verifier
		}
		defer fast.Release()
		ref := build()
		defer ref.Release()
		opts := ir.RunOpts{Args: []uint64{a0, a1, a2}, MaxSteps: fuzzMaxSteps}
		compare := func(what string) ir.RunResult {
			want := ref.RunReference(opts)
			if got := fast.Run(opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: RunResult differs:\nblock: %+v\nref:   %+v\n%s", what, got, want, src)
			}
			return want
		}
		golden := compare("golden")
		n := golden.Sites
		if n == 0 {
			return
		}
		for _, site := range []uint64{0, n / 2, n - 1} {
			opts.Fault = &ir.Fault{Site: site, Bit: uint(bit)}
			compare(fmt.Sprintf("fault %+v", *opts.Fault))
		}
	})
}
