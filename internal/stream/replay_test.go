package stream

import (
	"testing"
)

func TestReplayWindowEvictsOldest(t *testing.T) {
	rb := NewReplay(3, 1, 1)
	for i := 0; i < 5; i++ {
		rb.Add(frame(float64(i)))
	}
	if rb.WindowLen() != 3 || rb.Seen() != 5 {
		t.Fatalf("window %d seen %d", rb.WindowLen(), rb.Seen())
	}
	// window holds the three newest frames: 2, 3, 4 (oldest first)
	for i := 0; i < 3; i++ {
		got := rb.window[(rb.wHead+i)%len(rb.window)].Energy
		if got != float64(i+2) {
			t.Fatalf("window slot %d holds %v, want %v", i, got, float64(i+2))
		}
	}
}

func TestReplayReservoirUniform(t *testing.T) {
	// With a 1-slot reservoir over a 200-frame stream, each frame should be
	// retained with probability 1/200; over many trials the mean retained
	// tag should approach the stream mean.
	const stream, trials = 200, 400
	var sum float64
	for tr := 0; tr < trials; tr++ {
		rb := NewReplay(1, 1, int64(tr))
		for i := 0; i < stream; i++ {
			rb.Add(frame(float64(i)))
		}
		if rb.ReservoirLen() != 1 {
			t.Fatal("reservoir not filled")
		}
		sum += rb.reservoir[0].Energy
	}
	mean := sum / trials
	if mean < 70 || mean > 130 { // stream mean is 99.5; generous tolerance
		t.Fatalf("reservoir mean tag %v — sampling is biased", mean)
	}
}

func TestReplaySample(t *testing.T) {
	rb := NewReplay(4, 4, 3)
	if rb.Sample(2) != nil {
		t.Fatal("sampling an empty buffer must return nil")
	}
	for i := 0; i < 6; i++ {
		rb.Add(frame(float64(i)))
	}
	batch := rb.Sample(32)
	if len(batch) != 32 {
		t.Fatalf("sample returned %d frames", len(batch))
	}
	hit := map[float64]bool{}
	for _, s := range batch {
		hit[s.Energy] = true
	}
	// evicted window frames may survive in the reservoir, but the newest
	// frames must be reachable
	if !hit[5] || !hit[4] {
		t.Fatalf("recent frames missing from 32 draws over 8 slots: %v", hit)
	}
}

func TestReplayCheckpointRoundTrip(t *testing.T) {
	rb := NewReplay(3, 2, 42)
	for i := 0; i < 7; i++ {
		rb.Add(frame(float64(i)))
	}
	ck := rb.Checkpoint()
	got := RestoreReplay(ck)
	if got.Seen() != rb.Seen() || got.WindowLen() != rb.WindowLen() || got.ReservoirLen() != rb.ReservoirLen() {
		t.Fatalf("restored shape differs: seen %d/%d window %d/%d reservoir %d/%d",
			got.Seen(), rb.Seen(), got.WindowLen(), rb.WindowLen(), got.ReservoirLen(), rb.ReservoirLen())
	}
	// restored window preserves order, oldest first at index 0 (wHead reset)
	for i := 0; i < got.wLen; i++ {
		want := rb.window[(rb.wHead+i)%len(rb.window)].Energy
		if got.window[i].Energy != want {
			t.Fatalf("restored window slot %d holds %v, want %v", i, got.window[i].Energy, want)
		}
	}
	for i := range rb.reservoir {
		if got.reservoir[i].Energy != rb.reservoir[i].Energy {
			t.Fatalf("restored reservoir slot %d differs", i)
		}
	}
	// restored buffer keeps functioning: adds and samples
	got.Add(frame(100))
	if got.Seen() != rb.Seen()+1 {
		t.Fatal("restored buffer does not count new frames")
	}
	if len(got.Sample(4)) != 4 {
		t.Fatal("restored buffer cannot sample")
	}
}

// The sampling stream must survive a checkpoint: the restored buffer's
// draws are bitwise the draws the uninterrupted buffer makes, so a resumed
// (or replicated) trainer is reproducible by construction.
func TestReplayRNGResumesDrawSequence(t *testing.T) {
	rb := NewReplay(4, 4, 77)
	for i := 0; i < 10; i++ {
		rb.Add(frame(float64(i)))
	}
	// burn a few draws so the checkpoint lands mid-stream
	rb.Sample(5)
	ck := rb.Checkpoint()
	got := RestoreReplay(ck)
	if got.rng.State() != rb.rng.State() {
		t.Fatalf("restored RNG state %#x, want %#x", got.rng.State(), rb.rng.State())
	}
	for draw := 0; draw < 4; draw++ {
		a, b := rb.Sample(8), got.Sample(8)
		for i := range a {
			if a[i].Energy != b[i].Energy {
				t.Fatalf("draw %d sample %d diverged after restore: %v vs %v",
					draw, i, a[i].Energy, b[i].Energy)
			}
		}
	}
	// and the streams stay coupled through interleaved Adds (reservoir
	// inclusion draws advance the same stream)
	rb.Add(frame(200))
	got.Add(frame(200))
	if rb.rng.State() != got.rng.State() {
		t.Fatal("RNG streams diverged across Add")
	}
}
