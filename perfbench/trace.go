package main

import "fekf/internal/obs"

// zeroLayers returns every per-layer metric at 0, the value of a layer that
// does no work in the workload.
func zeroLayers() map[string]float64 {
	L := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		L[d.name] = 0
	}
	return L
}

// spanTotals sums span durations (ms) by name over the traces.
func spanTotals(traces []obs.StepTrace) map[string]float64 {
	tot := map[string]float64{}
	for _, tr := range traces {
		for _, s := range tr.Spans {
			tot[s.Name] += float64(s.DurNs) / 1e6
		}
	}
	return tot
}

// spanCounts counts spans by name over the traces.
func spanCounts(traces []obs.StepTrace) map[string]int {
	n := map[string]int{}
	for _, tr := range traces {
		for _, s := range tr.Spans {
			n[s.Name]++
		}
	}
	return n
}

func countSpans(traces []obs.StepTrace) int {
	n := 0
	for _, tr := range traces {
		n += len(tr.Spans)
	}
	return n
}

// lostSpans counts spans the tracer discarded past its per-step cap.
func lostSpans(traces []obs.StepTrace) int {
	n := 0
	for _, tr := range traces {
		n += tr.LostSpans
	}
	return n
}
