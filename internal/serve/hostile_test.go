package serve

import (
	"net/http"
	"testing"
	"time"

	"fekf/internal/online"
)

// TestHostileBoxRejectedFast drives a cell far smaller than the cutoff
// through both endpoints.  The neighbor scan over its periodic images
// would run for minutes; each request must instead answer 400 well inside
// the request timeout.
func TestHostileBoxRejectedFast(t *testing.T) {
	const timeout = 4 * time.Second
	ds, _, srv := serveSetup(t,
		online.TrainerConfig{BatchSize: 2, MinFrames: 2, SnapshotEvery: 1, Seed: 5,
			Gate: online.GateConfig{Enabled: false}},
		Config{RequestTimeout: timeout})
	base := "http://" + srv.Addr()
	tiny := [3]float64{0.01, 0.01, 0.01}
	s := ds.Snapshots[0]

	frame := framePayload(ds, 0)
	frame.Box = tiny
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/predict", PredictRequest{Pos: s.Pos[:3], Box: tiny, Types: s.Types[:1]}},
		{"/v1/frames", FramesRequest{Frames: []FramePayload{frame}}},
	} {
		t0 := time.Now()
		var eresp ErrorResponse
		code, err := postJSON(t, base+c.path, c.body, &eresp)
		if err != nil || code != http.StatusBadRequest {
			t.Fatalf("%s with a %v box: %d %v %q, want 400", c.path, tiny, code, err, eresp.Error)
		}
		if el := time.Since(t0); el > timeout/2 {
			t.Fatalf("%s took %v to reject a %v box", c.path, el, tiny)
		}
	}

	// The rejected frame must not reach the queue, and predict keeps
	// answering ordinary frames.
	var presp PredictResponse
	if code, err := postJSON(t, base+"/v1/predict",
		PredictRequest{Pos: s.Pos, Box: s.Box, Types: s.Types}, &presp); err != nil || code != http.StatusOK {
		t.Fatalf("predict after hostile requests: %d %v", code, err)
	}
	if st := srv.be.Stats(); st.FramesQueued != 0 {
		t.Fatalf("hostile frame queued: %d frames", st.FramesQueued)
	}
}
