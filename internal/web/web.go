// Package web is the embedded dashboard of the served verification flow: a
// few server-rendered html/template pages over the job manager — job list
// with a submit form, and a per-job page with the matrix grid, coverage
// bars and closure trajectories. Everything ships inside the binary via
// embed.FS; the dashboard needs no assets, no build step and no JavaScript
// (running pages poll by meta-refresh).
package web

import (
	"embed"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"

	"crve/internal/coverage"
	"crve/internal/jobs"
	"crve/internal/regress"
	"crve/internal/sim"
)

//go:embed templates/*.html
var templates embed.FS

// Server renders the dashboard over a job manager.
type Server struct {
	mgr *jobs.Manager
	mux *http.ServeMux
	tpl *template.Template
}

// New builds the dashboard for mgr.
func New(mgr *jobs.Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.tpl = template.Must(template.ParseFS(templates, "templates/*.html"))
	s.mux.HandleFunc("GET /{$}", s.index)
	s.mux.HandleFunc("POST /submit", s.submit)
	s.mux.HandleFunc("GET /jobs/{id}", s.job)
	return s
}

// Handler returns the routable handler.
func (s *Server) Handler() http.Handler { return s.mux }

// indexData feeds templates/index.html.
type indexData struct {
	Jobs    []jobs.Status
	Tests   []string
	Version string
	CacheOn bool
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	all := s.mgr.List()
	data := indexData{Version: regress.CodeVersion(), CacheOn: s.mgr.Cache() != nil}
	for i := len(all) - 1; i >= 0; i-- { // newest first
		data.Jobs = append(data.Jobs, all[i].Status())
	}
	s.render(w, "index.html", data)
}

// submit accepts the dashboard form and redirects to the new job's page.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec := jobs.Spec{
		Matrix:      r.Form.Get("matrix") != "",
		Quick:       r.Form.Get("quick") != "",
		KernelStats: r.Form.Get("kernelstats") != "",
		RecordWave:  r.Form.Get("record_wave") != "",
		Close:       r.Form.Get("close") != "",
	}
	if t := strings.TrimSpace(r.Form.Get("tests")); t != "" {
		for _, name := range strings.Split(t, ",") {
			spec.Tests = append(spec.Tests, strings.TrimSpace(name))
		}
	}
	if sd := strings.TrimSpace(r.Form.Get("seeds")); sd != "" {
		for _, v := range strings.Split(sd, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad seed %q", v), http.StatusBadRequest)
				return
			}
			spec.Seeds = append(spec.Seeds, n)
		}
	}
	if cfg := strings.TrimSpace(r.Form.Get("config")); cfg != "" {
		spec.Configs = []string{cfg}
	}
	job, err := s.mgr.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, "/jobs/"+job.ID, http.StatusSeeOther)
}

// runRow / cfgRow / trajRow are the pre-digested view models: templates only
// format, never compute.
type runRow struct {
	Test     string
	Seed     int64
	Cached   bool
	RTLPass  bool
	BCAPass  bool
	CovEqual bool
	MinAlign float64
}

type cfgRow struct {
	Name      string
	FuncCov   float64
	LineCov   float64
	MinAlign  float64
	SignedOff bool
	Runs      []runRow
	Holes     []string
}

type trajIter struct {
	Iter    int
	Percent float64
	NewBins int
	Units   int
	Cycles  uint64
}

// kernelRow is one (config, view) merged kernel profile for the dashboard's
// kernel table.
type kernelRow struct {
	Name   string
	View   string
	Runs   int
	Cycles uint64
}

type trajRow struct {
	Config       string
	Reason       string
	Converged    bool
	StartPercent float64
	FinalPercent float64
	Iters        []trajIter
}

// jobData feeds templates/job.html.
type jobData struct {
	St       jobs.Status
	Live     bool
	Percent  float64
	Configs  []cfgRow
	Kernels  []kernelRow
	Closures []trajRow
	Waves    []string
	LogTail  string
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) {
	job, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	st := job.Status()
	data := jobData{St: st, Live: !st.State.Terminal(), Waves: job.WaveUnits()}
	if st.Progress.Total > 0 {
		data.Percent = 100 * float64(st.Progress.Done) / float64(st.Progress.Total)
	}
	for _, cr := range job.Results() {
		row := cfgRow{
			Name:      cr.Cfg.Name,
			FuncCov:   cr.SuiteCoverage.Percent(),
			LineCov:   cr.CodeCov.Percent(coverage.LinePoint),
			MinAlign:  cr.MinAlignment,
			SignedOff: cr.SignedOff(),
		}
		for _, h := range cr.SuiteCoverage.Holes() {
			row.Holes = append(row.Holes, h.String())
		}
		for _, run := range cr.Runs {
			row.Runs = append(row.Runs, runRow{
				Test: run.Test, Seed: run.Seed, Cached: run.Cached,
				RTLPass: run.Pair.RTL.Passed(), BCAPass: run.Pair.BCA.Passed(),
				CovEqual: run.Pair.CoverageEqual, MinAlign: run.Pair.Alignment.MinRate(),
			})
		}
		data.Configs = append(data.Configs, row)
		for _, view := range []string{"RTL", "BCA"} {
			merged := &sim.KernelStats{}
			n := 0
			for _, run := range cr.Runs {
				res := run.Pair.RTL
				if view == "BCA" {
					res = run.Pair.BCA
				}
				if res.Kernel == nil {
					continue
				}
				merged.Merge(res.Kernel)
				n++
			}
			if n == 0 {
				continue
			}
			data.Kernels = append(data.Kernels, kernelRow{
				Name: cr.Cfg.Name, View: view, Runs: n, Cycles: merged.Cycles,
			})
		}
	}
	for _, traj := range job.Closures() {
		tr := trajRow{
			Config: traj.Config, Reason: traj.Reason, Converged: traj.Converged,
			StartPercent: traj.StartPercent, FinalPercent: traj.FinalPercent,
		}
		for _, it := range traj.Iterations {
			pct := 0.0
			if traj.TotalBins > 0 {
				pct = 100 * float64(traj.TotalBins-it.HolesAfter) / float64(traj.TotalBins)
			}
			tr.Iters = append(tr.Iters, trajIter{
				Iter: it.Iter, Percent: pct, NewBins: it.NewBins,
				Units: len(it.Units), Cycles: it.Cycles,
			})
		}
		data.Closures = append(data.Closures, tr)
	}
	if log := job.Log(); log != "" {
		const tail = 4000
		if len(log) > tail {
			log = "..." + log[len(log)-tail:]
		}
		data.LogTail = log
	}
	s.render(w, "job.html", data)
}

func (s *Server) render(w http.ResponseWriter, name string, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tpl.ExecuteTemplate(w, name, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
