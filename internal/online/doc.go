// Package online is the single online trainer of the paper's title: a
// long-running service that ingests labelled frames while an MD simulation
// (or any producer) generates them, trains the DeePMD model continuously
// with the FEKF optimizer, and publishes copy-on-write model snapshots
// that prediction readers consume without blocking training.
//
// A single trainer is a fleet of one: Trainer wraps a one-replica
// fleet.Fleet, which owns the loop, gate admission, the step, snapshot
// publication, the self-healing guard and the checkpoint format.  The
// library pieces it streams frames through — queue, gate, replay buffer,
// frame validation — live in internal/stream.  This package only narrows
// the fleet to the single-trainer surface: one replica, no autoscaling,
// the fekf_train_* metric names, and no per-replica fleet row in
// /v1/stats.
package online
