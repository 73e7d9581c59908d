package experiment

import (
	"fmt"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/metrics"
)

// Options scales the standard figure definitions. The zero value plus
// Defaults() reproduces the thesis's parameters: 64 processes, 1000
// runs per case, rates 0..12.
type Options struct {
	// Procs is the system size (thesis: 64; 32 and 48 for scaling).
	Procs int
	// Runs per case (thesis: 1000).
	Runs int
	// Rates is the x-axis sweep of mean message rounds between
	// connectivity changes (thesis: ≈0 through 12).
	Rates []float64
	// Seed roots all randomness.
	Seed int64
	// Progress receives per-case progress lines.
	Progress func(string)
	// Metrics, when non-nil, instruments every sweep the figures run.
	Metrics *metrics.Registry
}

// Defaults fills unset fields with the thesis's parameters.
func (o Options) Defaults() Options {
	if o.Procs == 0 {
		o.Procs = 64
	}
	if o.Runs == 0 {
		o.Runs = 1000
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	}
	if o.Seed == 0 {
		o.Seed = 20000505 // the thesis's submission date
	}
	return o
}

// FigureKind distinguishes what a figure plots.
type FigureKind int

const (
	// KindAvailability plots availability percentages (Figures 4-1..4-6).
	KindAvailability FigureKind = iota + 1
	// KindAmbiguity plots ambiguous-session histograms (Figures 4-7, 4-8).
	KindAmbiguity
)

// FigureSpec is one thesis figure: an identifier, a caption, and the
// sweep that regenerates it. Ambiguity figures carry one sweep per
// changes-count (the thesis stacks 2/6/12-change panels).
type FigureSpec struct {
	ID      string
	Caption string
	Kind    FigureKind
	Sweeps  []SweepSpec
}

// AvailabilityFigure builds the spec for one availability figure.
func AvailabilityFigure(id string, changes int, mode Mode, o Options) FigureSpec {
	o = o.Defaults()
	caption := fmt.Sprintf("System availability — %d %sconnectivity changes (%s)",
		changes, map[Mode]string{Cascading: "cascading "}[mode], mode)
	return FigureSpec{
		ID:      id,
		Caption: caption,
		Kind:    KindAvailability,
		Sweeps:  []SweepSpec{o.sweep(algset.Availability(), changes, mode)},
	}
}

// sweep is the SweepSpec of one figure panel under these options.
func (o Options) sweep(factories []core.Factory, changes int, mode Mode) SweepSpec {
	return SweepSpec{
		Factories: factories, Procs: o.Procs, Changes: changes, Rates: o.Rates, Runs: o.Runs,
		Mode: mode, Seed: o.Seed, Progress: o.Progress, Metrics: o.Metrics,
	}
}

// AmbiguityFigure builds the spec for the ambiguous-session figures.
// Figures 4-7 (stable) and 4-8 (in progress) come from the same runs —
// both histograms are collected together — so one spec covers both and
// renderers choose which histogram to plot.
func AmbiguityFigure(id, caption string, o Options) FigureSpec {
	o = o.Defaults()
	sweeps := make([]SweepSpec, 0, 3)
	for _, changes := range []int{2, 6, 12} {
		sweeps = append(sweeps, o.sweep(algset.AmbiguousSessions(), changes, FreshStart))
	}
	return FigureSpec{ID: id, Caption: caption, Kind: KindAmbiguity, Sweeps: sweeps}
}

// Figures returns the full Chapter 4 set, in thesis order.
func Figures(o Options) []FigureSpec {
	return []FigureSpec{
		AvailabilityFigure("4-1", 2, FreshStart, o),
		AvailabilityFigure("4-2", 6, FreshStart, o),
		AvailabilityFigure("4-3", 12, FreshStart, o),
		AvailabilityFigure("4-4", 2, Cascading, o),
		AvailabilityFigure("4-5", 6, Cascading, o),
		AvailabilityFigure("4-6", 12, Cascading, o),
		AmbiguityFigure("4-7/4-8", "Ambiguous sessions — YKD, unoptimized YKD, DFLS", o),
	}
}

// FigureByID finds a figure spec by its thesis number, e.g. "4-3".
// "4-7" and "4-8" both resolve to the combined ambiguity figure.
func FigureByID(id string, o Options) (FigureSpec, error) {
	if id == "4-7" || id == "4-8" {
		id = "4-7/4-8"
	}
	for _, f := range Figures(o) {
		if f.ID == id {
			return f, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("experiment: unknown figure %q (have 4-1 .. 4-8)", id)
}
