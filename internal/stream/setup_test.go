package stream

import (
	"testing"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
)

// setupModel builds a small labelled Cu stream and an initialized tiny
// model to score frames against.
func setupModel(t testing.TB) (*dataset.Dataset, *deepmd.Model) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 16, SampleEvery: 4, EquilSteps: 25, Tiny: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	m.Level = deepmd.OptAll
	m.Dev = device.New("stream-test", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	return ds, m
}
