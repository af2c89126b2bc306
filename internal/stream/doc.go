// Package stream holds the library pieces of the online-learning loop the
// paper's title points at — everything a conductor needs to turn a stream
// of labelled frames into FEKF minibatches, and nothing that runs one:
//
//	producer ──► Queue (bounded; block, drop-new or drop-old when full)
//	                │ conductor goroutine
//	                ▼
//	            Gate (ALKPU-style uncertainty score against diag(P))
//	                │ accepted frames
//	                ▼
//	            ReplayBuffer (FIFO window + reservoir over the stream)
//	                │ minibatches
//	                ▼
//	            optimizer step ──► ModelSnapshot ──► readers
//
// ValidateFrame is the ingest check every frame passes before it is
// queued, Stats is the flat /v1/stats view of a training backend, and
// WriteGobAtomic is the crash-safe checkpoint writer.  The one conductor
// is internal/fleet (a single trainer is a fleet of one replica); this
// package imports neither it nor internal/online.
package stream
