package ir

import "fmt"

// RunReference runs opts through runReference, the per-instruction
// reference loop the block-segment loop is tested against.
func (ip *Interp) RunReference(opts RunOpts) RunResult {
	if err := ip.begin(&opts); err != nil {
		return RunResult{Outcome: OutcomeCrash, CrashMsg: err.Error()}
	}
	return ip.result(ip.runReference(nil))
}

// BlockLastSites runs opts on the reference loop and returns, in order,
// the dynamic sites that are the last site of their block.
func (ip *Interp) BlockLastSites(opts RunOpts) []uint64 {
	if err := ip.begin(&opts); err != nil {
		return nil
	}
	var last []uint64
	ip.runReference(func(bl *dblock, idx int32) {
		if bl.siteSuffix[idx] == 1 {
			last = append(last, ip.sites-1)
		}
	})
	return last
}

// NextSiteInBlock reports whether s was taken mid-block and its innermost
// frame reaches another site in the same block before any call.
func (ip *Interp) NextSiteInBlock(s *Snapshot) bool {
	f := s.frames[len(s.frames)-1]
	bl := &ip.dfuncs[f.fn].blocks[f.block]
	for i := f.idx; f.idx > 0 && i < int32(len(bl.insts)) && bl.insts[i].op != OpCall; i++ {
		if bl.insts[i].site {
			return true
		}
	}
	return false
}

// runReference executes one instruction at a time with every check —
// step budget, fault site, checkpoint schedule — applied per instruction.
// It applies the fault itself, after exec, so it shares no event code with
// the segment loop. onSite, when non-nil, sees each retired site.
func (ip *Interp) runReference(onSite func(bl *dblock, idx int32)) error {
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
		if in.site {
			ip.sites++
		}
		if f := ip.fault; f != nil && in.site && sitesBefore == f.Site {
			fr.regs[in.dst] ^= 1 << (f.Bit % 64)
			ip.injected = true
			ip.injStep = ip.steps
		}
		if onSite != nil && in.site {
			onSite(bl, fr.idx)
		}
		fr.idx++
		if c := ip.ckpts; c != nil && ip.sites != sitesBefore && ip.sites%c.Every == 0 {
			ip.checkpoint(c)
		}
	}
}
