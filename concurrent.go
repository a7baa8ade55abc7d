package anubis

import (
	"io"
	"sync"
)

// SafeSystem wraps a System with a mutex so multiple goroutines can
// share one secure memory. The underlying controller models a single
// memory-controller pipeline, so operations serialize — the wrapper
// provides safety, not parallel speedup (a real controller's bank
// parallelism is already modeled inside the timing engine).
type SafeSystem struct {
	mu  sync.Mutex
	sys *System
}

// NewSafe constructs a thread-safe System.
func NewSafe(cfg Config) (*SafeSystem, error) {
	sys, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &SafeSystem{sys: sys}, nil
}

// Wrap makes an existing System thread-safe. The caller must stop using
// the unwrapped handle.
func Wrap(sys *System) *SafeSystem { return &SafeSystem{sys: sys} }

// ReadBlock returns the verified plaintext of block i.
func (s *SafeSystem) ReadBlock(i uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.ReadBlock(i)
}

// ReadBlockInto reads block i into dst without allocating.
func (s *SafeSystem) ReadBlockInto(i uint64, dst *[BlockSize]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.ReadBlockInto(i, dst)
}

// WriteBlock encrypts and persists block i.
func (s *SafeSystem) WriteBlock(i uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.WriteBlock(i, data)
}

// WriteBlocks applies a batch of block writes under one lock
// acquisition: the batch serializes as a unit against concurrent
// callers instead of interleaving write by write.
func (s *SafeSystem) WriteBlocks(writes []BlockWrite) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.WriteBlocks(writes)
}

// ReadRange reads n bytes at byte offset off.
func (s *SafeSystem) ReadRange(off uint64, n int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.ReadRange(off, n)
}

// WriteRange writes data at byte offset off.
func (s *SafeSystem) WriteRange(off uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.WriteRange(off, data)
}

// Flush writes back all dirty metadata (see System.Flush).
func (s *SafeSystem) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Flush()
}

// Fork returns an independent, thread-safe copy-on-write clone of the
// system (see System.Fork). The clone is taken under the wrapper's lock,
// so — unlike System.Fork, which must not race with operations on the
// parent — SafeSystem.Fork may be called while other goroutines are
// actively reading and writing: the fork observes a consistent point
// between their operations. The child gets its own lock; parent and
// child never contend after the fork returns.
func (s *SafeSystem) Fork() *SafeSystem {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SafeSystem{sys: s.sys.Fork()}
}

// Crash simulates a power failure.
func (s *SafeSystem) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.Crash()
}

// Recover runs the scheme's recovery algorithm.
func (s *SafeSystem) Recover() (RecoveryReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Recover()
}

// Stats returns accumulated statistics.
func (s *SafeSystem) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Stats()
}

// Audit runs the whole-memory integrity check.
func (s *SafeSystem) Audit() (AuditReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Audit()
}

// NumBlocks returns the number of 64-byte blocks.
func (s *SafeSystem) NumBlocks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.NumBlocks()
}

// Scheme returns the configured scheme. (Immutable after construction,
// but wrapped for method parity — see TestSafeSystemMethodParity.)
func (s *SafeSystem) Scheme() Scheme {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Scheme()
}

// Size returns the protected capacity in bytes.
func (s *SafeSystem) Size() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.Size()
}

// PushBudget reports the free WPQ slots at the current virtual clock —
// the admission-control back-pressure signal (see System.PushBudget).
func (s *SafeSystem) PushBudget() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.PushBudget()
}

// WPQDrainNS reports the virtual time until the WPQ is fully drained.
func (s *SafeSystem) WPQDrainNS() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.WPQDrainNS()
}

// AdvanceClock advances the virtual clock by ns of CPU think time.
func (s *SafeSystem) AdvanceClock(ns uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.AdvanceClock(ns)
}

// StateDigest returns the deterministic device-state digest.
func (s *SafeSystem) StateDigest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.StateDigest()
}

// SaveImage serializes the NVM contents to w under the lock: the image
// is a consistent point between concurrent operations.
func (s *SafeSystem) SaveImage(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.SaveImage(w)
}

// CountersPerBlock returns how many data blocks one counter block
// covers.
func (s *SafeSystem) CountersPerBlock() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.CountersPerBlock()
}

// TamperData flips bits in the stored ciphertext of a data block (see
// System.TamperData).
func (s *SafeSystem) TamperData(block uint64, byteIdx int, mask byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.TamperData(block, byteIdx, mask)
}

// TamperCounter flips bits in a stored encryption counter block (see
// System.TamperCounter).
func (s *SafeSystem) TamperCounter(counterBlock uint64, byteIdx int, mask byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.TamperCounter(counterBlock, byteIdx, mask)
}

// ReplayCounter overwrites a counter block with an earlier snapshot
// (see System.ReplayCounter).
func (s *SafeSystem) ReplayCounter(counterBlock uint64, snapshot [BlockSize]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.ReplayCounter(counterBlock, snapshot)
}

// SnapshotCounter captures the current NVM image of a counter block
// (see System.SnapshotCounter).
func (s *SafeSystem) SnapshotCounter(counterBlock uint64) [BlockSize]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sys.SnapshotCounter(counterBlock)
}
