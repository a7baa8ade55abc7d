package nvm

// Image persistence: a Device can be serialized to an io.Writer and
// restored later, modeling a real NVM DIMM whose contents survive a
// process (not just a power) cycle. The image captures everything in
// the persistence domain — the block stores, data sideband, on-chip
// persistent registers, committed-but-undrained groups, and wear
// counters. Volatile timing state is deliberately excluded.
//
// The on-disk format is a map-based gob encoding: Save flattens the
// paged store into maps, and Load rebuilds pages from them. Version 2
// kept version 1's encoding and changed what the data region holds:
// ciphertext under the keyed-mix pad instead of AES-128 (see
// cryptoeng). A v1 image is refused with ErrOldImage, since every read
// of its data would fail as a MAC mismatch and look like tampering.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"
)

// imageMagic guards against feeding arbitrary files to Load, and names
// the format version.
const imageMagic = "anubis-nvm-image-v2"

// imageMagicV1 is the magic of the format before the keyed-mix pad.
const imageMagicV1 = "anubis-nvm-image-v1"

// ErrOldImage is wrapped by LoadDevice's error for an image in a format
// older than the one Save writes.
var ErrOldImage = errors.New("nvm: image format too old")

// deviceImage is the serialized form of a Device.
type deviceImage struct {
	Magic  string
	Timing Timing

	Store [numRegions]map[uint64][BlockBytes]byte
	Side  map[uint64]Sideband
	Regs  map[string][BlockBytes]byte
	Wear  [numRegions]map[uint64]uint64

	Staged  []PendingWrite
	DoneBit bool

	// Journal is the persistent epoch journal (see journal.go). Absent
	// in pre-epoch images; gob leaves the field nil, which loads as an
	// empty journal.
	Journal []JournalEntry
}

// Save writes the device's persistent state to w.
func (d *Device) Save(w io.Writer) error {
	img := deviceImage{
		Magic:   imageMagic,
		Timing:  d.timing,
		Side:    make(map[uint64]Sideband),
		Regs:    d.regs,
		Staged:  d.staged,
		DoneBit: d.doneBit,
		Journal: d.journal,
	}
	for r := Region(0); r < numRegions; r++ {
		store := make(map[uint64][BlockBytes]byte)
		wear := make(map[uint64]uint64)
		d.store[r].forEachPage(func(base uint64, p *page) {
			for o := 0; o < pageBlocks; o++ {
				idx := base + uint64(o)
				if p.present[o>>6]&(1<<(uint(o)&63)) != 0 {
					store[idx] = p.data[o]
					if r == RegionData && p.side != nil {
						if s := p.side[o]; s != (Sideband{}) {
							img.Side[idx] = s
						}
					}
				}
				// Wear survives Erase: record it for every cell ever
				// written to media, present or not.
				if c := p.wear[o]; c > 0 {
					wear[idx] = c
				}
			}
		})
		img.Store[r] = store
		img.Wear[r] = wear
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("nvm: save image: %w", err)
	}
	return nil
}

// StateDigest returns a deterministic FNV-1a hash over the device's
// persistent state — exactly the quantities Save serializes, but in a
// canonical order. Save's own byte stream is NOT comparable across
// runs (gob ranges over the flattened maps in randomized order), so
// equivalence tests that want "byte-identical device image" semantics
// compare digests instead. Two devices with equal digests hold
// identical persistent images.
func (d *Device) StateDigest() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	mix64 := func(v uint64) {
		for i := uint(0); i < 64; i += 8 {
			mix(byte(v >> i))
		}
	}
	mixSide := func(s Sideband) {
		for _, b := range s.ECC {
			mix(b)
		}
		mix64(s.MAC)
		mix(s.Phase)
	}
	mix64(d.timing.ReadNS)
	mix64(d.timing.WriteNS)
	for r := Region(0); r < numRegions; r++ {
		mix64(uint64(r))
		// forEachPage visits pages in ascending page-index order, and
		// block order within a page is fixed, so this walk is canonical.
		d.store[r].forEachPage(func(base uint64, p *page) {
			for o := 0; o < pageBlocks; o++ {
				present := p.present[o>>6]&(1<<(uint(o)&63)) != 0
				if !present && p.wear[o] == 0 {
					continue
				}
				mix64(base + uint64(o))
				mix64(p.wear[o])
				if !present {
					continue
				}
				mix(1)
				for _, b := range p.data[o] {
					mix(b)
				}
				if r == RegionData && p.side != nil {
					mixSide(p.side[o])
				}
			}
		})
	}
	names := make([]string, 0, len(d.regs))
	for k := range d.regs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		for i := 0; i < len(k); i++ {
			mix(k[i])
		}
		blk := d.regs[k]
		for _, b := range blk {
			mix(b)
		}
	}
	for i := range d.staged {
		w := &d.staged[i]
		mix64(uint64(w.Region))
		mix64(w.Index)
		for _, b := range w.Block {
			mix(b)
		}
		if w.HasSide {
			mixSide(w.Side)
		}
		for i := 0; i < len(w.RegName); i++ {
			mix(w.RegName[i])
		}
		if w.JOp != JournalNone {
			mix(byte(w.JOp))
			mix64(w.JKey)
			for _, b := range w.JOld {
				mix(b)
			}
		}
	}
	if d.doneBit {
		mix(1)
	}
	// Journal entries in note order: the order recovery replays them in
	// is part of the persistent state.
	for i := range d.journal {
		e := &d.journal[i]
		mix64(e.Key)
		for _, b := range e.Old {
			mix(b)
		}
		for _, b := range e.New {
			mix(b)
		}
	}
	return h
}

// LoadDevice restores a Device from an image produced by Save. The
// returned device is in post-power-cycle state: bank/WPQ timing is
// reset, and any committed-but-undrained group is still pending its
// RedoCommitted.
func LoadDevice(r io.Reader) (*Device, error) {
	var img deviceImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("nvm: load image: %w", err)
	}
	switch img.Magic {
	case imageMagic:
	case imageMagicV1:
		return nil, fmt.Errorf("%w: %s holds data encrypted under the retired AES-128 pad, which %s cannot open",
			ErrOldImage, imageMagicV1, imageMagic)
	default:
		return nil, fmt.Errorf("nvm: not an NVM image (magic %q)", img.Magic)
	}
	// NewDevice allocates per bank, WPQ entry and write port, so a
	// damaged count would panic it (below one) or exhaust memory (huge,
	// which no recover can catch). The bounds sit far above any modeled
	// configuration (Table 1: 4 banks, 32 WPQ entries, 2 write ports).
	if t := img.Timing; t.Banks < 1 || t.Banks > 1<<10 ||
		t.WPQEntries < 1 || t.WPQEntries > 1<<16 || t.WritePorts > 1<<10 {
		return nil, fmt.Errorf("nvm: image timing out of bounds: %d banks (1..1024), %d WPQ entries (1..65536), %d write ports (at most 1024)",
			t.Banks, t.WPQEntries, t.WritePorts)
	}
	d := NewDevice(img.Timing)
	for reg := Region(0); reg < numRegions; reg++ {
		s := &d.store[reg]
		for idx, blk := range img.Store[reg] {
			p, o := s.slot(idx)
			s.mark(p, o, true)
			p.data[o] = blk
		}
		for idx, c := range img.Wear[reg] {
			p, o := s.slot(idx)
			p.wear[o] = c
		}
	}
	for idx, sb := range img.Side {
		p, o := d.store[RegionData].slot(idx)
		p.setSide(o, sb)
	}
	if img.Regs != nil {
		d.regs = img.Regs
	}
	d.staged = img.Staged
	d.doneBit = img.DoneBit
	if len(img.Journal) > 0 {
		d.journal = img.Journal
		d.journalIdx = make(map[uint64]int, len(img.Journal))
		for i := range img.Journal {
			d.journalIdx[img.Journal[i].Key] = i
		}
	}
	return d, nil
}
