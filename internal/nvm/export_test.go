package nvm

// InflightLen returns the current undo-log length: writes that a
// relaxed-model crash may still lose or tear.
func (d *Device) InflightLen() int { return len(d.inflight) }
