package ir

import "fmt"

// RunReference runs opts through runReference, the per-instruction
// reference loop the block-segment loop is tested against.
func (ip *Interp) RunReference(opts RunOpts) RunResult {
	if err := ip.begin(&opts); err != nil {
		return RunResult{Outcome: OutcomeCrash, CrashMsg: err.Error()}
	}
	return ip.result(ip.runReference())
}

// runReference executes one instruction at a time with every check —
// step budget, fault site, checkpoint schedule — applied per instruction.
func (ip *Interp) runReference() error {
	for {
		fr := &ip.frames[len(ip.frames)-1]
		bl := &fr.df.blocks[fr.block]
		if int(fr.idx) >= len(bl.insts) {
			return irCrash{fmt.Sprintf("@%s/%s: fell off block end", fr.df.fn.Name, bl.name)}
		}
		in := &bl.insts[fr.idx]
		ip.steps++
		if ip.steps > ip.maxSteps {
			return errHang
		}
		switch in.op {
		case OpBr, OpCondBr, OpRet, OpCall:
			done, err := ip.controlFlow(in, fr)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			continue
		}
		sitesBefore := ip.sites
		if err := ip.exec(in, fr.regs); err != nil {
			return err
		}
		fr.idx++
		if ip.checkpointEvery > 0 && ip.sites != sitesBefore &&
			ip.sites%ip.checkpointEvery == 0 && ip.onCheckpoint != nil {
			ip.onCheckpoint(ip.Snapshot())
		}
	}
}
