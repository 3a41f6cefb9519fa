package main

import "time"

// hostProbe measures how fast the host runs interpreter-like code right now.
// It runs a fixed, randomly generated register-machine program with loads
// and stores over 1 MiB of memory through a switch dispatch loop: work of
// the same kind as the program's machine and IR interpreters, which the
// host's slow states slow about as much (see README.md, Host noise). It is
// the benchmark's own code and allocates nothing, so no change to the
// program, its heap included, moves it.
type hostProbe struct {
	code  []uint32
	mem   []uint64
	times []float64
}

const (
	probeCode  = 1 << 12 // instructions
	probeWords = 1 << 17 // 1 MiB
	probeSteps = 1 << 20
	// refProbeSeconds is about the probe's time in the fast state of the
	// host the benchmark was built on (Xeon, Sapphire Rapids); wall_s and
	// setup_s are reported in seconds of a host whose probe takes this long.
	refProbeSeconds = 0.002
)

func newHostProbe() *hostProbe {
	p := &hostProbe{code: make([]uint32, probeCode), mem: make([]uint64, probeWords)}
	x := uint64(1)
	for i := range p.code {
		x = x*6364136223846793005 + 1442695040888963407
		p.code[i] = uint32(x >> 32)
	}
	return p
}

// sample times one probe and records it.
func (p *hostProbe) sample() {
	t0 := time.Now()
	probeSink += p.run()
	p.times = append(p.times, time.Since(t0).Seconds())
}

// probeSink keeps the run from being optimised away.
var probeSink uint64

// run executes probeSteps instructions. An instruction's low three bits pick
// the operation, the next six its two registers and the high bits an
// address offset or branch target.
func (p *hostProbe) run() uint64 {
	var r [8]uint64
	pc := 0
	for step := 0; step < probeSteps; step++ {
		in := p.code[pc]
		a, b := (in>>8)&7, (in>>11)&7
		pc = (pc + 1) & (probeCode - 1)
		switch in & 7 {
		case 0:
			r[a] += r[b] + uint64(in)
		case 1:
			r[a] ^= r[b] << 1
		case 2:
			r[a] = p.mem[(r[b]+uint64(in>>14))&(probeWords-1)]
		case 3:
			p.mem[(r[a]+uint64(in>>14))&(probeWords-1)] = r[b]
		case 4:
			if r[a]&1 == 0 {
				pc = int(in>>16) & (probeCode - 1)
			}
		case 5:
			r[a] *= r[b] | 1
		case 6:
			r[a] -= r[b]
		default:
			r[a] = r[a]>>3 | r[b]<<61
		}
	}
	return r[0] + r[3]
}
