package memctrl

import (
	"fmt"

	"anubis/internal/nvm"
	"anubis/internal/wear"
)

// regStartGap is the on-chip persistent register holding the Start-Gap
// mapping state. The durability protocol is copy-then-register: a gap
// movement first makes the line copy durable, then advances the
// register, so the mapping observed after any crash always points at a
// line holding valid content.
const regStartGap = "startgap_state"

// wearLeveler wraps the Start-Gap machinery shared by both controller
// families. A nil *wearLeveler means leveling is disabled and every
// method degrades to the identity mapping.
type wearLeveler struct {
	sg  *wear.StartGap
	dev *nvm.Device
}

// newWearLeveler creates (and persists) a fresh leveler over numBlocks
// data blocks, or returns nil when period is zero.
func newWearLeveler(dev *nvm.Device, numBlocks uint64, period int) *wearLeveler {
	if period <= 0 {
		return nil
	}
	w := &wearLeveler{sg: wear.New(numBlocks, uint64(period)), dev: dev}
	w.persist()
	return w
}

// phys maps a logical data block to its physical line.
func (w *wearLeveler) phys(idx uint64) uint64 {
	if w == nil {
		return idx
	}
	return w.sg.Map(idx)
}

func (w *wearLeveler) persist() {
	st := w.sg.Pack()
	w.dev.SetReg(regStartGap, st[:])
}

// recordWrite counts a data write and performs a gap movement when due:
// the source line is copied (or the destination erased when the source
// is empty), made durable, and only then the mapping advances — both in
// NVM (register) and in the volatile mirror.
func (w *wearLeveler) recordWrite(now uint64) uint64 {
	if w == nil {
		return now
	}
	mv, due := w.sg.RecordWrite()
	if !due {
		return now
	}
	if w.dev.Has(nvm.RegionData, mv.Src) {
		blk, side, _, done := w.dev.ReadDataAt(mv.Src, now, true)
		now = w.dev.Push(nvm.PendingWrite{Region: nvm.RegionData, Index: mv.Dst, Block: *blk, HasSide: true, Side: side}, done)
	} else {
		w.dev.Erase(nvm.RegionData, mv.Dst)
	}
	w.sg.Commit()
	w.persist()
	return now
}

// clone duplicates the leveler for a forked controller, rebinding it to
// the forked device. Nil-safe (leveling disabled clones to disabled).
func (w *wearLeveler) clone(dev *nvm.Device) *wearLeveler {
	if w == nil {
		return nil
	}
	return &wearLeveler{sg: w.sg.Clone(), dev: dev}
}

// reloadWearLeveler restores the mapping from the persistent register
// after a crash. It returns nil when leveling is disabled.
func reloadWearLeveler(dev *nvm.Device, period int) (*wearLeveler, error) {
	if period <= 0 {
		return nil, nil
	}
	raw, ok := dev.GetReg(regStartGap)
	if !ok {
		return nil, fmt.Errorf("memctrl: wear-leveling register missing")
	}
	var st [32]byte
	copy(st[:], raw[:32])
	sg, err := wear.Unpack(st, uint64(period))
	if err != nil {
		return nil, fmt.Errorf("memctrl: %w", err)
	}
	return &wearLeveler{sg: sg, dev: dev}, nil
}
