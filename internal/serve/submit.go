package serve

// POST /v1/submit — the kernel submission endpoint. The body is either
// raw restricted-C kernel source or a submit.Request JSON object (first
// non-space byte '{' selects JSON). Measurement goes through
// internal/submit, which shares this daemon's scheduler, memo caches
// and persistent store; this layer
// adds the HTTP concerns: the body byte cap (413), admission through the
// run semaphore (503), the request deadline (504), structured rejection
// bodies, and the response headers that carry request-varying metadata —
// X-Ninjagap-Submit-Memo (hit|miss) and X-Ninjagap-Computed-Cells —
// which must stay out of the body so equal submissions stay
// byte-identical.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ninjagap/internal/submit"
)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r, int64(s.sub.Limits().MaxSourceBytes))
	if !ok {
		s.met.submitRejected.Add(1)
		return
	}
	req, err := parseSubmitBody(body)
	if err != nil {
		s.met.submitRejected.Add(1)
		writeSubmitError(w, &submit.Error{Code: submit.CodeBadRequest, Msg: err.Error()})
		return
	}
	cfg, err := s.requestConfig(r.URL.Query())
	if err != nil {
		s.met.submitRejected.Add(1)
		writeSubmitError(w, &submit.Error{Code: submit.CodeBadRequest, Msg: err.Error()})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	out, err := s.sub.Process(ctx, req, cfg)
	if err != nil {
		var se *submit.Error
		if errors.As(err, &se) {
			if se.Code == submit.CodeCompile {
				s.met.submitCompileErrors.Add(1)
			} else {
				s.met.submitRejected.Add(1)
			}
			writeSubmitError(w, se)
			return
		}
		s.writeRunError(w, err)
		return
	}
	s.met.submitAccepted.Add(1)
	memo := "miss"
	if out.MemoHit {
		s.met.submitMemoHits.Add(1)
		memo = "hit"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ninjagap-Submit-Memo", memo)
	w.Header().Set("X-Ninjagap-Computed-Cells", strconv.Itoa(out.Computed))
	_, _ = w.Write(out.Body)
}

// parseSubmitBody decodes the submission body: a JSON submit.Request
// when it looks like JSON, raw kernel source otherwise.
func parseSubmitBody(body []byte) (submit.Request, error) {
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "{") {
		var req submit.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return submit.Request{}, fmt.Errorf("bad submit request: %v", err)
		}
		return req, nil
	}
	return submit.Request{Source: string(body)}, nil
}

// writeSubmitError sends a structured rejection: the *Error JSON under
// its mapped status.
func writeSubmitError(w http.ResponseWriter, se *submit.Error) {
	b, err := json.Marshal(se)
	if err != nil {
		http.Error(w, se.Error(), se.HTTPStatus())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(se.HTTPStatus())
	_, _ = w.Write(append(b, '\n'))
}
