package memctrl

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"anubis/internal/cryptoeng"
	"anubis/internal/ecc"
	"anubis/internal/merkle"
	"anubis/internal/nvm"
	"anubis/internal/obs"
)

// core is the machinery both controller families share: the device and
// crypto engine, counter-mode encryption with its ECC + data-MAC
// sideband, the DONE_BIT two-stage commit (Figure 4), Start-Gap wear
// leveling, the virtual clock, and the recovery frame. Bonsai and SGX
// embed it and add only their counter layout, tree, caches and shadow
// scheme. What a data block looks like on the medium is decided here
// and nowhere else: seal writes that format and open checks it.
type core struct {
	cfg  Config
	dev  *nvm.Device
	eng  *cryptoeng.Engine
	geom merkle.Geometry

	numBlocks uint64 // data blocks

	// wl is the optional Start-Gap wear leveler over the data region.
	wl *wearLeveler

	// phased makes seal carry the encryption counter's low byte in the
	// sideband (RecoveryPhase reads it back). The Bonsai family sets it;
	// the SGX family has no counter recovery and leaves the byte zero.
	phased bool

	now     uint64
	stats   RunStats
	crashed bool

	// probe observes simulation events (evictions, commits, overflows,
	// recovery). Nil by default: every emission site is a single
	// predictable nil-check branch, so the disabled path costs nothing
	// and cannot perturb simulated timing.
	probe obs.Probe

	// pending accumulates the current operation's atomic write group.
	pending []nvm.PendingWrite
}

// newCore returns the shared state of a controller over dev; the
// family fills in geom.
func newCore(cfg Config, dev *nvm.Device) core {
	return core{
		cfg:       cfg,
		dev:       dev,
		eng:       cryptoeng.NewTestEngine(),
		numBlocks: cfg.MemoryBytes / BlockBytes,
	}
}

// reserve declares the extents of the data, counter and tree regions to
// the device, so their page directories are allocated once at final
// size (the +1 on the data region covers the Start-Gap spare line). The
// families reserve their shadow regions themselves.
func (c *core) reserve(counterBlocks uint64) {
	c.dev.Reserve(nvm.RegionData, c.numBlocks+1)
	c.dev.Reserve(nvm.RegionCounter, counterBlocks)
	c.dev.Reserve(nvm.RegionTree, c.geom.TotalNodes())
}

// Scheme returns the configured scheme.
func (c *core) Scheme() Scheme { return c.cfg.Scheme }

// NumBlocks returns the data block count.
func (c *core) NumBlocks() uint64 { return c.numBlocks }

// Device exposes the NVM device.
func (c *core) Device() *nvm.Device { return c.dev }

// Now returns the controller's virtual time.
func (c *core) Now() uint64 { return c.now }

// AdvanceTo moves virtual time forward (CPU think time between
// requests, attributed as cpu_gap).
func (c *core) AdvanceTo(t uint64) {
	if t > c.now {
		c.dev.Attr().Add(obs.CompCPUGap, t-c.now)
		c.now = t
	}
}

// SetProbe attaches (or detaches, with nil) an event probe.
func (c *core) SetProbe(p obs.Probe) { c.probe = p }

// baseStats returns the run-time statistics both families report; each
// adds its own cache counters.
func (c *core) baseStats() RunStats {
	s := c.stats
	s.NVM = c.dev.Stats()
	s.Attribution = *c.dev.Attr()
	return s
}

func (c *core) checkAddr(idx uint64) error {
	if c.crashed {
		return ErrCrashed
	}
	if idx >= c.numBlocks {
		return fmt.Errorf("memctrl: block %d out of range (%d blocks)", idx, c.numBlocks)
	}
	return nil
}

// commitPending drains the operation's atomic group through the
// persistent registers and WPQ (two-stage commit, Figure 4).
func (c *core) commitPending() {
	if len(c.pending) == 0 {
		return
	}
	if c.dev.DoneBit() {
		// A simulated mid-drain power loss froze an earlier group in the
		// staging area (the SetPushBudget hook): the persistence domain
		// accepts nothing more, so later groups are dropped on the floor
		// — after the crash, RedoCommitted governs what lands.
		c.pending = c.pending[:0]
		return
	}
	c.dev.BeginCommit()
	for _, w := range c.pending {
		c.dev.Stage(w)
	}
	start, n := c.now, uint64(len(c.pending))
	c.now = c.dev.CommitGroup(c.now)
	c.pending = c.pending[:0]
	if c.probe != nil {
		c.probe.Event(obs.EvCommit, start, c.now, n)
	}
}

// --- the data-block format ----------------------------------------------------

// seal encrypts pt as logical block idx under counter ctr and stages the
// ciphertext, with its sideband, in the current commit group. ECC covers
// the plaintext (the Osiris sanity check); the MAC binds the data to
// counter and address.
func (c *core) seal(idx, ctr uint64, pt *[BlockBytes]byte) {
	var ct [BlockBytes]byte
	c.eng.EncryptTo(ct[:], pt[:], idx, ctr)
	side := nvm.Sideband{ECC: ecc.EncodeBlock(pt[:]), MAC: c.eng.DataMAC(idx, ctr, pt[:])}
	if c.phased {
		side.Phase = uint8(ctr)
	}
	c.pending = append(c.pending, nvm.PendingWrite{Region: nvm.RegionData, Index: c.wl.phys(idx), Block: ct, HasSide: true, Side: side})
}

// open decrypts ciphertext ct into pt as logical block idx under
// counter ctr and verifies it against its sideband. It returns the name
// of the first check that failed, "ECC" or "MAC", or "" when the block
// is genuine. It decrypts and SECDED-checks one 8-byte word at a time
// and stops at the first word that fails: a wrong Osiris candidate
// decrypts to pseudo-random words, so it almost always costs the
// keystream and one pad word, a few multiplies. The verdict is that of
// decrypting the whole block before checking it; pt is complete only
// when open returns "" or "MAC".
func (c *core) open(pt, ct *[BlockBytes]byte, side *nvm.Sideband, idx, ctr uint64) string {
	k := c.eng.Keystream(idx, ctr)
	for w := 0; w < ecc.WordsPerBlock; w++ {
		v := binary.LittleEndian.Uint64(ct[w*ecc.WordBytes:]) ^ k.Word(w)
		binary.LittleEndian.PutUint64(pt[w*ecc.WordBytes:], v)
		if !ecc.Check(v, side.ECC[w]) {
			return "ECC"
		}
	}
	if c.eng.DataMAC(idx, ctr, pt[:]) != side.MAC {
		return "MAC"
	}
	return ""
}

// dataFetch is a read's data-block fetch, issued when the read starts so
// that it overlaps the metadata walk. ct points into the device's store;
// it stays valid across the walk, because a read's metadata work never
// writes the data region.
type dataFetch struct {
	idx  uint64
	ct   *[BlockBytes]byte
	side nvm.Sideband
	has  bool
	done uint64
}

// fetchData issues the data fetch quietly: it overlaps the (attributed)
// metadata walk, so chargeData bills only its visible residual.
func (c *core) fetchData(idx uint64) dataFetch {
	ct, side, has, done := c.dev.ReadDataAt(c.wl.phys(idx), c.now, false)
	return dataFetch{idx: idx, ct: ct, side: side, has: has, done: done}
}

// chargeData waits out whatever part of the fetch the metadata walk did
// not hide, as data_read, then charges the MAC verification (path
// verifications overlap it) as crypto.
func (c *core) chargeData(f *dataFetch) {
	if f.done > c.now {
		c.dev.Attr().Add(obs.CompDataRead, f.done-c.now)
		c.now = f.done
	}
	c.now += HashNS
	c.dev.Attr().Add(obs.CompCrypto, HashNS)
}

// openData ends a read under the block's verified counter: a block
// never written reads as logical zeros, any other block is opened and
// verified.
func (c *core) openData(f *dataFetch, ctr uint64) ([BlockBytes]byte, error) {
	if !f.has {
		return [BlockBytes]byte{}, nil
	}
	var pt [BlockBytes]byte
	if fail := c.open(&pt, f.ct, &f.side, f.idx, ctr); fail != "" {
		return [BlockBytes]byte{}, &IntegrityError{What: "data " + fail + " mismatch", Addr: f.idx}
	}
	return pt, nil
}

// --- lifecycle ------------------------------------------------------------------

// crash is the shared half of CrashWith: the device loses what the
// crash model says, the open commit group is lost, and the controller
// refuses I/O until Recover.
func (c *core) crash(model nvm.CrashModel, rng *rand.Rand) {
	c.dev.CrashWith(model, rng)
	c.pending = c.pending[:0]
	c.crashed = true
}

// fork is the shared half of Clone: the device forks copy-on-write, the
// wear leveler rebinds to the fork, and the pending group is copied.
// Probes are per-controller observers (a trace Scope's sampling counter
// is not goroutine-safe); forks start unobserved and the caller attaches
// its own probe if it wants one.
func (c *core) fork() core {
	n := *c
	n.dev = c.dev.Fork()
	n.wl = c.wl.clone(n.dev)
	n.pending = append([]nvm.PendingWrite(nil), c.pending...)
	n.probe = nil
	return n
}

// recoverFrame runs a family's recovery body between the shared
// prologue — the DONE_BIT redo, then the wear-leveling map, restored
// before any data-region access — and epilogue: the ops counted since
// the last phase boundary are attributed, so the phase ledger covers
// the whole pass, success or failure, and the probe sees the pass.
func (c *core) recoverFrame(body func(*RecoveryReport) error) (*RecoveryReport, error) {
	rep := &RecoveryReport{Scheme: c.cfg.Scheme}
	rep.RedoneWrites = c.dev.RedoCommitted()
	wl, err := reloadWearLeveler(c.dev, c.cfg.WearPeriod)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	} else {
		c.wl = wl
		err = body(rep)
	}
	rep.settlePhases()
	if c.probe != nil {
		c.probe.Event(obs.EvRecovery, c.now, c.now+rep.ModeledNS(), rep.FetchOps+rep.CryptoOps)
	}
	return rep, err
}
