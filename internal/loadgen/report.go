package loadgen

import (
	"fmt"
	"io"
	"runtime"
)

// Section is what `loadgen -json` prints: the run summary for the ramp+soak
// mixed workload or the capacity ladder, stamped with the Go version and
// GOMAXPROCS it ran under.
type Section struct {
	GoVersion  string          `json:"goVersion"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Mix        Mix             `json:"mix"`
	Run        *Result         `json:"run,omitempty"`
	Capacity   *CapacityResult `json:"capacity,omitempty"`
}

// NewSection stamps the environment around the measurements.
func NewSection(mix Mix, run *Result, capacity *CapacityResult) *Section {
	return &Section{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Mix:        mix,
		Run:        run,
		Capacity:   capacity,
	}
}

// WriteReport renders a run result for humans.
func WriteReport(w io.Writer, res *Result) {
	fmt.Fprintf(w, "offered %d learners over %.1fs (%.1f/s planned, generator lateness p99 %.2fms max %.2fms)\n",
		res.Offered, res.PlannedSeconds, res.OfferedPerSec, res.Lateness.P99Ms, res.Lateness.MaxMs)
	for _, class := range []string{ClassFixed, ClassCAT, ClassWatch} {
		c := res.Classes[class]
		if c == nil || c.Started == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-6s started %5d  completed %5d  failed %d\n",
			class, c.Started, c.Completed, c.Failed)
	}
	for _, rt := range res.Routes {
		fmt.Fprintf(w, "  %-13s n=%-7d p50=%8.2fms p99=%8.2fms p999=%8.2fms max=%8.2fms errors=%d\n",
			rt.Route, rt.Count, rt.P50Ms, rt.P99Ms, rt.P999Ms, rt.MaxMs, rt.Errors)
	}
	if res.Frames+res.Gaps+res.StatsFrames > 0 {
		fmt.Fprintf(w, "  watchers: %d event frames, %d stats frames, %d stream.gap markers\n",
			res.Frames, res.StatsFrames, res.Gaps)
	}
	verdict := "MET"
	if !res.SLOMet {
		verdict = "MISSED"
	}
	fmt.Fprintf(w, "  requests %d, errors %d, p99 %.2fms vs SLO %.0fms: %s\n",
		res.RequestCount, res.Errors, res.RequestP99Ms, res.SLOMs, verdict)
}

// WriteCapacityReport renders the ladder for humans.
func WriteCapacityReport(w io.Writer, cr *CapacityResult) {
	fmt.Fprintf(w, "capacity ladder (%.0fms p99 SLO, %.1fs soak steps):\n", cr.SLOMs, cr.StepSeconds)
	for _, st := range cr.Steps {
		status := "PASS"
		if !st.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %8.1f/s  offered %6d  reqs %7d  p99 %8.2fms  errs %5d (%.3f%%)  %s\n",
			st.RatePerSec, st.Offered, st.RequestCount, st.RequestP99Ms,
			st.Errors, st.ErrorRate*100, status)
	}
	switch {
	case cr.MaxSustainedRate > 0 && !cr.Saturated:
		fmt.Fprintf(w, "  max sustained arrival rate meeting the SLO: %.1f learners/s (ladder exhausted without failing — true capacity is higher)\n",
			cr.MaxSustainedRate)
	case cr.MaxSustainedRate > 0:
		fmt.Fprintf(w, "  max sustained arrival rate meeting the SLO: %.1f learners/s\n",
			cr.MaxSustainedRate)
	case len(cr.Steps) > 0:
		fmt.Fprintf(w, "  no step met the SLO — capacity is below %.1f learners/s\n",
			cr.Steps[0].RatePerSec)
	}
}
