package experiments

import (
	"fmt"
	"testing"
)

// TestEverySimulatedFigureDrains runs every simulated experiment at
// Quick scale over seeds 1–8 on the worker pool. The simulator ends a
// run with an error when a query is still waiting at its bound, so no
// error means every query of every run completed.
func TestEverySimulatedFigureDrains(t *testing.T) {
	runs := []struct {
		name string
		run  func(s Scale) error
	}{
		{"fig3", func(s Scale) error { _, err := Figure3(s); return err }},
		{"fig4", func(s Scale) error { _, err := Figure4(s); return err }},
		{"fig5a", func(s Scale) error { _, err := Figure5a(s); return err }},
		{"fig5b", func(s Scale) error { _, err := Figure5b(s); return err }},
		{"fig5c", func(s Scale) error { _, err := Figure5c(s); return err }},
		{"fig6", func(s Scale) error { _, err := Figure6(s); return err }},
		{"static", func(s Scale) error { _, err := StaticWorkload(s, 0.8); return err }},
		{"partial", func(s Scale) error { _, err := PartialAdoption(s); return err }},
	}
	const seeds = 8
	err := forEach(Quick().workers(), seeds*len(runs), func(i int) error {
		s := Quick()
		s.Seed, s.Parallel = int64(1+i/len(runs)), 1
		r := runs[i%len(runs)]
		if err := r.run(s); err != nil {
			return fmt.Errorf("%s seed %d: %w", r.name, s.Seed, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
