package bench

import "fmt"

// Experiment is a named, runnable reproduction of one paper artifact.
type Experiment struct {
	Name  string
	Desc  string
	Run   func(Config) error
	Alias []string
}

// Experiments lists every reproducible table and figure.
var Experiments = []Experiment{
	{Name: "table1", Desc: "Table 1: capabilities matrix", Run: Table1},
	{Name: "table2", Desc: "Table 2: dataset characteristics", Run: Table2},
	{Name: "fig4", Desc: "Figures 4+5: end-to-end latency and memory (InMemory vs Warm vs Cold, both DUTs)", Run: EndToEnd, Alias: []string{"fig5"}},
	{Name: "fig6", Desc: "Figure 6: index construction time and memory", Run: Construction},
	{Name: "fig7", Desc: "Figure 7: hybrid optimizer latency/recall vs selectivity", Run: Hybrid},
	{Name: "fig8", Desc: "Figure 8: mini-batch size vs recall and memory", Run: MiniBatchSweep},
	{Name: "fig9", Desc: "Figure 9: multi-query optimization vs batch size", Run: BatchMQO},
	{Name: "fig10", Desc: "Figure 10: full vs incremental rebuild over insertion epochs", Run: Updates},
	{Name: "headline", Desc: "Abstract headline: SIFT top-100 @90% recall under ~10MB", Run: Headline},
	{Name: "ablation-balance", Desc: "Ablation: balance penalty vs partition-size spread", Run: AblationBalance},
	{Name: "ablation-clustering", Desc: "Ablation: clustered vs shuffled partition layout", Run: AblationClustering},
}

// Lookup resolves an experiment by name or alias.
func Lookup(name string) (Experiment, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, nil
		}
		for _, a := range e.Alias {
			if a == name {
				return e, nil
			}
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", name)
}

// RunAll executes every experiment in registry order.
func RunAll(cfg Config) error {
	for _, e := range Experiments {
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
