package experiments

import (
	"fmt"
	"io"
	"sort"

	"ruru/internal/anomaly"
	"ruru/internal/core"
	"ruru/internal/gen"
	"ruru/internal/geo"
)

// E4Result reproduces the paper's headline anecdote: a nightly firewall
// update adds ~4000 ms to every connection started in a short window; Ruru
// sees it immediately while the 5-minute SNMP-style average does not (§3:
// "This 4000 ms increase had not been noticed by conventional measurement
// tools (e.g., SNMP polls), however, it was clearly shown in our Grafana
// UI").
type E4Result struct {
	Flows    int // completing flows measured
	Affected int // ground-truth anomalous flows measured

	SpikeFirings  int // detector firings
	TruePositives int // firings on genuinely anomalous flows
	Recall        float64
	Precision     float64

	// Conventional-monitoring comparison.
	SNMPIntervals    int
	SNMPBaselineMs   float64 // median interval mean
	SNMPWorstMs      float64 // worst interval mean
	SNMPDeviationPct float64 // worst deviation from the baseline
}

// E4Config parameterizes the firewall experiment.
type E4Config struct {
	Seed     int64
	FlowRate float64 // default 200 flows/s
	Hours    float64 // virtual capture length (default 0.5)
	PeriodS  int64   // glitch period (default 600s)
	WindowMs int64   // glitch window (default 500ms)
	ExtraMs  int64   // added delay (default 4000ms, the paper's number)
}

// E4 runs the experiment over the full measurement path with both the
// Ruru spike detector and the SNMP strawman consuming the same stream.
func E4(cfg E4Config, w io.Writer) (E4Result, error) {
	if cfg.FlowRate <= 0 {
		cfg.FlowRate = 200
	}
	if cfg.Hours <= 0 {
		cfg.Hours = 0.5
	}
	if cfg.PeriodS <= 0 {
		cfg.PeriodS = 600
	}
	if cfg.WindowMs <= 0 {
		cfg.WindowMs = 500
	}
	if cfg.ExtraMs <= 0 {
		cfg.ExtraMs = 4000
	}
	world, err := geo.NewWorld(geo.WorldOptions{Seed: cfg.Seed})
	if err != nil {
		return E4Result{}, err
	}
	dur := int64(cfg.Hours * 3600 * 1e9)
	g, err := gen.New(gen.Config{
		Seed: cfg.Seed, World: world,
		FlowRate: cfg.FlowRate, Duration: dur,
		// The deployment scenario: NZ clients, US servers.
		ClientCities: []int{0, 2, 3}, ServerCities: []int{1, 7, 8, 9},
		FirewallWindows: []gen.Window{{
			Every: cfg.PeriodS * 1e9, Offset: 60e9,
			Length: cfg.WindowMs * 1e6, Extra: cfg.ExtraMs * 1e6,
		}},
	})
	if err != nil {
		return E4Result{}, err
	}

	spikes := anomaly.NewSpikeBank(anomaly.SpikeConfig{}, 0)
	snmp := anomaly.NewSNMPPoller(300e9)

	type outcome struct {
		flow  core.FlowKey
		fired bool
	}
	var outcomes []outcome
	rep := Replay{
		Queues: 4,
		Table:  core.TableConfig{Capacity: 1 << 17, Timeout: 60e9},
		OnMeasure: func(m *core.Measurement) {
			snmp.Offer(m.ACKTime, m.Total)
			pair := "?"
			if cs, ok := world.CityOf(m.Flow.Client); ok {
				if cd, ok := world.CityOf(m.Flow.Server); ok {
					pair = cs.Name + "→" + cd.Name
				}
			}
			_, fired := spikes.Offer(pair, m.ACKTime, m.Total)
			outcomes = append(outcomes, outcome{flow: m.Flow, fired: fired})
		},
	}
	rep.Run(g)
	snmp.Flush()

	truthByKey := map[core.FlowKey]*gen.FlowTruth{}
	truths := g.Truths()
	for i := range truths {
		truthByKey[truths[i].Key] = &truths[i]
	}

	res := E4Result{}
	for _, o := range outcomes {
		tr, ok := truthByKey[o.flow]
		if !ok {
			continue
		}
		res.Flows++
		if tr.Anomalous {
			res.Affected++
			if o.fired {
				res.TruePositives++
			}
		}
		if o.fired {
			res.SpikeFirings++
		}
	}
	if res.Affected > 0 {
		res.Recall = float64(res.TruePositives) / float64(res.Affected)
	}
	if res.SpikeFirings > 0 {
		res.Precision = float64(res.TruePositives) / float64(res.SpikeFirings)
	}

	samples := snmp.Samples()
	res.SNMPIntervals = len(samples)
	if len(samples) > 0 {
		means := make([]float64, len(samples))
		worst := 0.0
		for i, s := range samples {
			means[i] = s.MeanNs / 1e6
			if means[i] > worst {
				worst = means[i]
			}
		}
		sort.Float64s(means)
		res.SNMPBaselineMs = means[len(means)/2]
		res.SNMPWorstMs = worst
		if res.SNMPBaselineMs > 0 {
			res.SNMPDeviationPct = 100 * (worst - res.SNMPBaselineMs) / res.SNMPBaselineMs
		}
	}

	if w != nil {
		fmt.Fprintf(w, "E4: nightly firewall glitch (+%dms for flows started in a %dms window every %ds)\n",
			cfg.ExtraMs, cfg.WindowMs, cfg.PeriodS)
		fmt.Fprintf(w, "  flows measured              %d\n", res.Flows)
		fmt.Fprintf(w, "  ground-truth affected       %d (%.3f%% of traffic)\n", res.Affected, pct(res.Affected, res.Flows))
		fmt.Fprintf(w, "  Ruru spike detections       %d  (recall %.1f%%, precision %.1f%%)\n",
			res.SpikeFirings, 100*res.Recall, 100*res.Precision)
		fmt.Fprintf(w, "  SNMP 5-min intervals        %d\n", res.SNMPIntervals)
		fmt.Fprintf(w, "  SNMP baseline mean          %.1f ms\n", res.SNMPBaselineMs)
		fmt.Fprintf(w, "  SNMP worst interval mean    %.1f ms (deviation %.1f%% — %s)\n",
			res.SNMPWorstMs, res.SNMPDeviationPct, e4Verdict(res.SNMPDeviationPct))
	}
	return res, nil
}

func e4Verdict(devPct float64) string {
	if devPct < 25 {
		return "invisible to threshold alerting, as the paper reports"
	}
	return "visible"
}
