package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"hyqsat/internal/qpu"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs        submit a solve (DIMACS CNF in JSON); 202 + job view
//	GET  /v1/jobs/{id}   job status/result
//	GET  /healthz        liveness + drain state
//
// Every refusal carries a JSON body in ErrorBody shape and, when the
// condition is temporary, a Retry-After header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// ErrorBody is the JSON body of every non-2xx response, so clients always
// have a machine-readable reason alongside the status code.
type ErrorBody struct {
	Error  string `json:"error"`            // stable tag: "queue_full", "quota", "draining", ...
	Detail string `json:"detail,omitempty"` // human elaboration
}

// tenantOf extracts the tenant, bounded so a hostile header cannot blow up
// accounting keys or trace payloads.
func tenantOf(req *http.Request) string {
	t := req.Header.Get(qpu.HeaderTenant)
	if t == "" {
		return "anonymous"
	}
	if len(t) > 64 {
		t = t[:64]
	}
	return t
}

// deadlineOf converts the X-Hyqsat-Deadline-Ms header into an absolute
// deadline. Absent or malformed headers mean no client deadline.
func deadlineOf(req *http.Request, now func() time.Time) time.Time {
	ms, err := strconv.ParseInt(req.Header.Get(qpu.HeaderDeadlineMs), 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return now().Add(time.Duration(ms) * time.Millisecond)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeRefusal(w http.ResponseWriter, ae *AdmissionError) {
	if ae.RetryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(ae.RetryAfter))
	}
	writeJSON(w, ae.Status, ErrorBody{Error: ae.Tag, Detail: ae.Detail})
}

func (s *Service) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.cfg.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorBody{Error: "oversized"})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "read", Detail: err.Error()})
		return
	}
	var sr SubmitRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad_json", Detail: err.Error()})
		return
	}
	existing := req.Header.Get(qpu.HeaderIdempotency) != ""
	view, err := s.Submit(tenantOf(req), req.Header.Get(qpu.HeaderIdempotency), sr,
		deadlineOf(req, s.cfg.Now))
	if err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			writeRefusal(w, ae)
			return
		}
		writeJSON(w, http.StatusInternalServerError, ErrorBody{Error: "internal", Detail: err.Error()})
		return
	}
	// A replayed idempotent submit returns the existing job with 200; a
	// fresh admission is 202 (the job runs asynchronously).
	status := http.StatusAccepted
	if existing && view.State != StateQueued {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Service) handleJob(w http.ResponseWriter, req *http.Request) {
	view, ok := s.Job(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorBody{Error: "unknown_job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleHealth(w http.ResponseWriter, req *http.Request) {
	state := "serving"
	if s.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"state":   state,
		"tenants": s.tenants.Names(),
		"queue":   len(s.queue),
	})
}
