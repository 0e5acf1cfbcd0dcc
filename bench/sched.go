package main

// openLoop sends bursts on a fixed schedule regardless of how the engine
// keeps up: burst k is due at start + k*interval, the sender spin-waits
// for that instant, and a burst that is already late is still sent at
// once, so after a stall the generator catches up back-to-back on the
// original grid. Every burst is handed its due time (latency is measured
// from there, which charges a stall to the bursts queued behind it) and
// its lateness is recorded, so the run can report how late the generator
// itself ran.
type openLoop struct {
	now      func() int64 // ns clock; a fake in tests
	start    int64
	interval float64 // ns between bursts
	late     []int64 // lateness of burst k, preallocated; bursts past its length go unrecorded
}

// run sends bursts whose due time is before end and returns how many it
// sent. send receives the burst index and its due time.
func (o *openLoop) run(end int64, send func(k int, due int64)) int {
	for k := 0; ; k++ {
		due := o.start + int64(float64(k)*o.interval)
		if due >= end {
			return k
		}
		t := o.now()
		for t < due {
			t = o.now()
		}
		if k < len(o.late) {
			o.late[k] = t - due
		}
		send(k, due)
	}
}
