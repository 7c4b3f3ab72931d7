package main

// The reproduce workload: the full paper pipeline, run as the built
// cmd/reproduce binary at the workload's input seed. Every artifact it
// writes is hashed and checked against the golden manifest (INDEX.txt holds
// wall-clock times and is excluded).

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"coordcharge/internal/report"
	"coordcharge/internal/scenario"
)

const indexFile = "INDEX.txt"

func reproduceGolden(root string, in int64) (manifest, error) {
	data, err := os.ReadFile(goldenPath(root, "reproduce", in, "sha256"))
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	return parseManifest(data)
}

// buildReproduce sets the workload up setupReps times and returns the
// binary and the setup times.
func buildReproduce(o options) (string, []float64, error) {
	var setups []float64
	var bin string
	for i := 0; i < setupReps; i++ {
		bin = filepath.Join(o.work, fmt.Sprintf("reproduce-%d", i))
		d, err := goBuild(o.root, "cmd/reproduce", bin)
		if err != nil {
			return "", nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return bin, setups, nil
}

func runReproduce(o options) (*outcome, error) {
	want, err := reproduceGolden(o.root, o.in())
	if err != nil {
		return nil, err
	}
	bin, setups, err := buildReproduce(o)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var walls, cpus []float64
	repeat(o.budget(), func(rep int) {
		wall, cpu, bad, err := reproduceOnce(o, bin, want, rep)
		if err != nil {
			out.fail(len(want), err.Error())
			return
		}
		out.ops(len(want), bad)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
	})
	out.set("setup_s", median(setups), "s")
	logf("cpu_s samples: %v", cpus)
	out.set("cpu_s", median(cpus), "s")
	out.info["wall_s"] = median(walls)
	return out, nil
}

// reproduceOnce runs the pipeline once and checks its artifacts. It returns
// the process's wall and CPU time.
func reproduceOnce(o options, bin string, want manifest, rep int) (time.Duration, time.Duration, []string, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("artifacts-%d", rep))
	defer os.RemoveAll(dir)
	start := time.Now()
	p, err := startProc(o.work, bin, "-out", dir, "-seed", fmt.Sprint(o.in()))
	if err != nil {
		return 0, 0, nil, err
	}
	_, ps, err := p.wait()
	wall := time.Since(start)
	if err != nil {
		return 0, 0, nil, err
	}
	got, err := hashDir(dir, indexFile)
	if err != nil {
		return 0, 0, nil, err
	}
	return wall, cpuTime(ps), diffStrings(want, got), nil
}

// artifact is one entry of the pipeline, built in-process for the traced
// sweep. It mirrors cmd/reproduce's list; the golden manifest check proves
// the two have not drifted apart. layer names the span the builder call is
// recorded under.
type artifact struct {
	name  string
	layer string
	build func() ([]namedChart, *report.Table, error)
}

type namedChart struct {
	name  string
	chart *report.Chart
}

// pipeline lists the artifacts cmd/reproduce writes, in its order, with
// its default -years.
func pipeline(seed int64) []artifact {
	const years = 20000
	one := func(name string, c *report.Chart) []namedChart { return []namedChart{{name, c}} }
	chart := func(name, layer string, f func() *report.Chart) artifact {
		return artifact{name, layer, func() ([]namedChart, *report.Table, error) { return one(name, f()), nil, nil }}
	}
	series := func(prefix string, cs []*report.Chart) []namedChart {
		var out []namedChart
		for i, c := range cs {
			out = append(out, namedChart{fmt.Sprintf("%s%c", prefix, 'a'+i), c})
		}
		return out
	}
	return []artifact{
		chart("fig02_region_outage", "scenario.fig02", func() *report.Chart { return scenario.Fig2Chart(1) }),
		chart("fig03_charge_profile", "scenario.rest", func() *report.Chart { return scenario.Fig3Charts()[0] }),
		chart("fig03_current", "scenario.rest", func() *report.Chart { return scenario.Fig3Charts()[1] }),
		chart("fig03_voltage", "scenario.rest", func() *report.Chart { return scenario.Fig3Charts()[2] }),
		chart("fig04_power_by_dod", "scenario.rest", scenario.Fig4Chart),
		chart("fig05_charge_time", "scenario.rest", scenario.Fig5Chart),
		chart("fig06b_eq1", "scenario.rest", scenario.Fig6bChart),
		chart("fig07_row_validation", "scenario.rest", scenario.Fig7Chart),
		{"table1_components", "scenario.rest", func() ([]namedChart, *report.Table, error) {
			return nil, scenario.TableITable(), nil
		}},
		{"fig09a_aor", "reliability.montecarlo", func() ([]namedChart, *report.Table, error) {
			c, err := scenario.Fig9aChart(years, seed)
			return one("fig09a_aor", c), nil, err
		}},
		{"table2_sla", "reliability.montecarlo", func() ([]namedChart, *report.Table, error) {
			t, err := scenario.TableIITable(years, seed)
			return nil, t, err
		}},
		{"table2_breakdown", "reliability.montecarlo", func() ([]namedChart, *report.Table, error) {
			t, err := scenario.BreakdownTable(years, seed, 30*time.Minute)
			return nil, t, err
		}},
		chart("fig09b_sla_current", "scenario.rest", scenario.Fig9bChart),
		chart("fig10_prototype_row", "scenario.rest", scenario.Fig10Chart),
		chart("fig11_override", "scenario.rest", scenario.Fig11Chart),
		{"fig12_trace", "scenario.rest", func() ([]namedChart, *report.Table, error) {
			c, err := scenario.Fig12Chart(seed)
			return one("fig12_trace", c), nil, err
		}},
		{"fig13_table3", "scenario.fig13_table3", func() ([]namedChart, *report.Table, error) {
			res, err := scenario.RunFig13(seed)
			if err != nil {
				return nil, nil, err
			}
			return series("fig13", res.Charts), res.TableIII, nil
		}},
		{"fig14_sweeps", "scenario.fig14", func() ([]namedChart, *report.Table, error) {
			cs, err := scenario.RunFig14(seed)
			return series("fig14", cs), nil, err
		}},
		{"fig15_distributions", "scenario.fig15", func() ([]namedChart, *report.Table, error) {
			cs, err := scenario.RunFig15(seed)
			return series("fig15", cs), nil, err
		}},
		{"case2_building", "scenario.case2", func() ([]namedChart, *report.Table, error) {
			res, err := scenario.RunCaseII(12, seed)
			if err != nil {
				return nil, nil, err
			}
			return nil, res.Table, nil
		}},
		{"endurance_realized_aor", "scenario.endurance", func() ([]namedChart, *report.Table, error) {
			res, err := scenario.RunEndurance(scenario.EnduranceSpec{Years: 30, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return nil, scenario.EnduranceTable(res), nil
		}},
		{"capacity_advice", "scenario.advise316", func() ([]namedChart, *report.Table, error) {
			adv, err := scenario.Advise(scenario.AdvisorSpec{NumP1: 89, NumP2: 142, NumP3: 85, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return nil, scenario.AdviceTable(adv), nil
		}},
	}
}

// runPipeline builds every artifact in-process into dir, recording a span
// per artifact with the builder call and each file write as children.
func runPipeline(tr *tracer, parent int, dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range pipeline(seed) {
		var err error
		tr.do("artifact/"+a.name, parent, func(id int) {
			var charts []namedChart
			var table *report.Table
			tr.do(a.layer, id, func(int) { charts, table, err = a.build() })
			if err != nil {
				err = fmt.Errorf("%s: %w", a.name, err)
				return
			}
			tr.do("report.save", id, func(int) {
				for _, c := range charts {
					if err = report.SaveChart(dir, c.name, c.chart); err != nil {
						return
					}
				}
				if table != nil {
					err = report.SaveTable(dir, a.name, table)
				}
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
