// Package api is the HTTP/JSON surface of the served verification flow
// (verification-as-a-service): submit a job, poll or stream its status,
// fetch its reports. It is a thin, stateless view over internal/jobs — every
// handler reads or mutates the job table through the Manager and encodes
// with the same canonical encoder the CLI uses (regress.WriteJSON), so a
// report fetched over HTTP is byte-identical to `regress -json` for the same
// matrix.
//
// Endpoints (all under /api/v1):
//
//	POST   /jobs                  submit a jobs.Spec, returns the queued status
//	GET    /jobs                  list job statuses
//	GET    /jobs/{id}             poll one status
//	POST   /jobs/{id}/cancel      cancel (DELETE /jobs/{id} is an alias)
//	GET    /jobs/{id}/events      live status stream (Server-Sent Events)
//	GET    /jobs/{id}/log         progress log, text/plain
//	GET    /jobs/{id}/report      canonical JSON report (regress -json shape)
//	GET    /jobs/{id}/coverage    per-config functional/code coverage
//	GET    /jobs/{id}/alignment   per-run STBA alignment reports
//	GET    /jobs/{id}/kernelstats merged per-config/view kernel profiles
//	GET    /jobs/{id}/closure     coverage-closure trajectories
//	GET    /jobs/{id}/waves       stored waveform unit keys
//	GET    /jobs/{id}/wave/{unit...}  one .crw recording (config/test/seed/view)
//	GET    /tests                 the generic suite's test names
//	GET    /version               code version keying the shared result cache
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"crve/internal/coverage"
	"crve/internal/jobs"
	"crve/internal/regress"
	"crve/internal/sim"
	"crve/internal/stba"
	"crve/internal/testcases"
)

// Server routes the API over a job manager.
type Server struct {
	mgr *jobs.Manager
	mux *http.ServeMux
}

// New builds the API server for mgr.
func New(mgr *jobs.Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("GET /api/v1/version", s.version)
	s.mux.HandleFunc("GET /api/v1/tests", s.tests)
	s.mux.HandleFunc("POST /api/v1/jobs", s.submit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.list)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.status)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.cancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/log", s.log)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.report)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/coverage", s.coverage)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/alignment", s.alignment)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/kernelstats", s.kernelstats)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/closure", s.closure)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/waves", s.waves)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/wave/{unit...}", s.wave)
	return s
}

// Handler returns the routable handler.
func (s *Server) Handler() http.Handler { return s.mux }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// jsonDecoder decodes a request body strictly: an unknown field in a spec is
// a client typo, not something to silently ignore.
func jsonDecoder(r *http.Request) *json.Decoder {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	regress.WriteJSON(w, v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) version(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"code_version": regress.CodeVersion()})
}

func (s *Server) tests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"tests": testcases.Names()})
}

// maxSpecBytes bounds a submitted job spec. The largest real specs inline a
// few dozen configurations at well under 1 KiB each.
const maxSpecBytes = 1 << 20

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
	dec := jsonDecoder(r)
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "bad spec: body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	job, err := s.mgr.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	all := s.mgr.List()
	out := make([]jobs.Status, 0, len(all))
	for _, j := range all {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// job resolves the {id} path value, writing the 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.mgr.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return job, true
}

// doneJob additionally requires the job to have results (state done).
func (s *Server) doneJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	job, ok := s.job(w, r)
	if !ok {
		return nil, false
	}
	if st := job.Status(); st.State != jobs.Done {
		writeErr(w, http.StatusConflict, "job %s is %s: results are available once it is done", job.ID, st.State)
		return nil, false
	}
	return job, true
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.mgr.Cancel(job.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) log(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, job.Log())
	}
}

// events streams status snapshots as Server-Sent Events: one event per
// merged work unit and state change, ending after the terminal snapshot.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	ch, cancel := job.Subscribe()
	defer cancel()
	// SSE data lines must be single-line: events use compact JSON, not the
	// multi-line canonical encoder.
	send := func(st jobs.Status) bool {
		data, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}
	if !send(job.Status()) {
		return
	}
	for {
		select {
		case st, open := <-ch:
			if !open {
				return
			}
			if !send(st) {
				return
			}
			if st.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) report(w http.ResponseWriter, r *http.Request) {
	job, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	regress.WriteJSON(w, job.Report())
}

// configCoverage is one configuration's coverage block.
type configCoverage struct {
	Name           string            `json:"name"`
	FuncCovPercent float64           `json:"func_cov_percent"`
	LineCovPercent float64           `json:"line_cov_percent"`
	Functional     *coverage.Group   `json:"functional"`
	Code           *coverage.CodeMap `json:"code,omitempty"`
	Holes          []string          `json:"holes,omitempty"`
}

func (s *Server) coverage(w http.ResponseWriter, r *http.Request) {
	job, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	var out []configCoverage
	for _, cr := range job.Results() {
		cc := configCoverage{
			Name:           cr.Cfg.Name,
			FuncCovPercent: cr.SuiteCoverage.Percent(),
			LineCovPercent: cr.CodeCov.Percent(coverage.LinePoint),
			Functional:     cr.SuiteCoverage,
			Code:           cr.CodeCov,
		}
		for _, h := range cr.SuiteCoverage.Holes() {
			cc.Holes = append(cc.Holes, h.String())
		}
		out = append(out, cc)
	}
	writeJSON(w, http.StatusOK, map[string]any{"configs": out})
}

// runAlignment is one run's STBA block.
type runAlignment struct {
	Test   string       `json:"test"`
	Seed   int64        `json:"seed"`
	Report *stba.Report `json:"report"`
}

type configAlignment struct {
	Name         string         `json:"name"`
	MinAlignment float64        `json:"min_alignment"`
	Runs         []runAlignment `json:"runs"`
}

func (s *Server) alignment(w http.ResponseWriter, r *http.Request) {
	job, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	var out []configAlignment
	for _, cr := range job.Results() {
		ca := configAlignment{Name: cr.Cfg.Name, MinAlignment: cr.MinAlignment}
		for _, run := range cr.Runs {
			ca.Runs = append(ca.Runs, runAlignment{Test: run.Test, Seed: run.Seed, Report: run.Pair.Alignment})
		}
		out = append(out, ca)
	}
	writeJSON(w, http.StatusOK, map[string]any{"configs": out})
}

// viewKernel is the merged kernel profile of one (config, view).
type viewKernel struct {
	Name  string           `json:"name"`
	View  string           `json:"view"`
	Runs  int              `json:"runs"`
	Stats *sim.KernelStats `json:"stats"`
}

func (s *Server) kernelstats(w http.ResponseWriter, r *http.Request) {
	job, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	var out []viewKernel
	for _, cr := range job.Results() {
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
			if n > 0 {
				out = append(out, viewKernel{Name: cr.Cfg.Name, View: view, Runs: n, Stats: merged})
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"configs": out})
}

func (s *Server) closure(w http.ResponseWriter, r *http.Request) {
	job, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trajectories": job.Closures()})
}

func (s *Server) waves(w http.ResponseWriter, r *http.Request) {
	job, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"units": job.WaveUnits()})
}

// wave serves one stored .crw recording. The unit path is
// config/test/seed/view, e.g. /api/v1/jobs/j0001/wave/cfg00/basic_write_read/1/rtl.
func (s *Server) wave(w http.ResponseWriter, r *http.Request) {
	job, ok := s.doneJob(w, r)
	if !ok {
		return
	}
	unit := r.PathValue("unit")
	rec := job.Wave(unit)
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no recording for unit %q (submit with record_wave, then see GET .../waves)", unit)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", strings.ReplaceAll(unit, "/", "_")+".crw"))
	w.Write(rec.Encode())
}
