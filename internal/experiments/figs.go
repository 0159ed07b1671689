package experiments

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/invlist"
	"repro/internal/relational"
)

// Fig5Sizes itemizes the index storage of Fig. 5: the SQL approach (base
// table, q-gram table, composite clustered B-tree) versus the inverted-
// list approaches (the lists, skip lists, the membership bitmaps SF
// completes dense lists with, and the paper's extendible hashing for
// TA/iTA's random access, built here only to be sized).
type Fig5Sizes struct {
	Relational relational.Sizes
	Lists      invlist.Sizes
	ExtHash    int64
}

// Fig5 reports the storage accounting of the built indexes.
func Fig5(env *Env) Fig5Sizes {
	return Fig5Sizes{
		Relational: env.E.RelationalSizes(),
		Lists:      env.E.Sizes(),
		ExtHash:    extHashBytes(env.C, 0),
	}
}

// fig6Algorithms is the lineup of Fig. 6 in presentation order.
var fig6Algorithms = []core.Algorithm{
	core.SortByID, core.SQL, core.TA, core.NRA,
	core.ITA, core.INRA, core.SF, core.Hybrid,
}

// defaultBucket is the 11–15-gram class used by Figs. 6(a), 6(c).
var defaultBucket = dataset.SizeBuckets[2]

// Fig6Taus, Fig6Mods are the swept parameter values of Fig. 6.
var (
	Fig6Taus = []float64{0.6, 0.7, 0.8, 0.9}
	Fig6Mods = []int{0, 1, 2, 3}
)

// Fig6a sweeps the threshold (11–15 grams, 0 modifications).
func Fig6a(env *Env) []Cell {
	wl := env.Workload(defaultBucket, 0)
	var out []Cell
	for _, tau := range Fig6Taus {
		for _, alg := range fig6Algorithms {
			out = append(out, env.runCell(wl, tau, alg, alg.String(), nil))
		}
	}
	return out
}

// Fig6b sweeps the query size (τ = 0.8, 0 modifications).
func Fig6b(env *Env) []Cell {
	var out []Cell
	for _, b := range dataset.SizeBuckets {
		wl := env.Workload(b, 0)
		for _, alg := range fig6Algorithms {
			out = append(out, env.runCell(wl, 0.8, alg, alg.String(), nil))
		}
	}
	return out
}

// Fig6c sweeps the number of modifications (τ = 0.6, 11–15 grams).
func Fig6c(env *Env) []Cell {
	var out []Cell
	for _, mods := range Fig6Mods {
		wl := env.Workload(defaultBucket, mods)
		for _, alg := range fig6Algorithms {
			out = append(out, env.runCell(wl, 0.6, alg, alg.String(), nil))
		}
	}
	return out
}

// fig7Algorithms: Fig. 7 focuses on the inverted-list approaches.
var fig7Algorithms = []core.Algorithm{
	core.SortByID, core.TA, core.NRA, core.ITA, core.INRA, core.SF, core.Hybrid,
}

// Fig7a/b/c mirror the Fig. 6 sweeps, reported as pruning power.
func Fig7a(env *Env) []Cell {
	wl := env.Workload(defaultBucket, 0)
	var out []Cell
	for _, tau := range Fig6Taus {
		for _, alg := range fig7Algorithms {
			out = append(out, env.runCell(wl, tau, alg, alg.String(), nil))
		}
	}
	return out
}

// Fig7b sweeps query size at τ = 0.8.
func Fig7b(env *Env) []Cell {
	var out []Cell
	for _, b := range dataset.SizeBuckets {
		wl := env.Workload(b, 0)
		for _, alg := range fig7Algorithms {
			out = append(out, env.runCell(wl, 0.8, alg, alg.String(), nil))
		}
	}
	return out
}

// Fig7c sweeps modifications at τ = 0.6.
func Fig7c(env *Env) []Cell {
	var out []Cell
	for _, mods := range Fig6Mods {
		wl := env.Workload(defaultBucket, mods)
		for _, alg := range fig7Algorithms {
			out = append(out, env.runCell(wl, 0.6, alg, alg.String(), nil))
		}
	}
	return out
}

// fig8Algorithms are the Length Bounding ablation subjects.
var fig8Algorithms = []core.Algorithm{core.SQL, core.ITA, core.INRA, core.SF, core.Hybrid}

// Fig8a sweeps the threshold with Length Bounding on and off.
func Fig8a(env *Env) []Cell {
	wl := env.Workload(defaultBucket, 0)
	var out []Cell
	nlb := &core.Options{NoLengthBound: true}
	for _, tau := range Fig6Taus {
		for _, alg := range fig8Algorithms {
			out = append(out, env.runCell(wl, tau, alg, alg.String(), nil))
			out = append(out, env.runCell(wl, tau, alg, alg.String()+" NLB", nlb))
		}
	}
	return out
}

// Fig8b sweeps the query size with Length Bounding on and off (the
// paper's detailed SQL/SF panel plus the other improved algorithms).
func Fig8b(env *Env) []Cell {
	var out []Cell
	nlb := &core.Options{NoLengthBound: true}
	for _, b := range dataset.SizeBuckets {
		wl := env.Workload(b, 0)
		for _, alg := range fig8Algorithms {
			out = append(out, env.runCell(wl, 0.8, alg, alg.String(), nil))
			out = append(out, env.runCell(wl, 0.8, alg, alg.String()+" NLB", nlb))
		}
	}
	return out
}

// fig9Algorithms are the skip-list ablation subjects.
var fig9Algorithms = []core.Algorithm{core.ITA, core.INRA, core.SF, core.Hybrid}

// Fig9 sweeps the threshold with the skip index on and off ("NSL").
func Fig9(env *Env) []Cell {
	wl := env.Workload(defaultBucket, 0)
	var out []Cell
	nsl := &core.Options{NoSkipIndex: true}
	for _, tau := range Fig6Taus {
		for _, alg := range fig9Algorithms {
			out = append(out, env.runCell(wl, tau, alg, alg.String(), nil))
			out = append(out, env.runCell(wl, tau, alg, alg.String()+" NSL", nsl))
		}
	}
	return out
}
