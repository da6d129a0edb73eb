package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// Stable machine-readable error codes of the v1 API. Every non-2xx
// response carries exactly one of them in the error envelope; clients
// switch on the code, never on message text, so messages stay free to
// improve. Codes are append-only: removing or renaming one is a
// breaking API change.
const (
	// CodeBadRequest: the request shape or a named registry entry is
	// invalid (unknown kind, scenario, space, objective or budget,
	// malformed JSON body). HTTP 400.
	CodeBadRequest = "bad_request"
	// CodeSpecInvalid: the inline spec document failed strict parsing,
	// validation or compilation; the message names the offending field.
	// HTTP 400.
	CodeSpecInvalid = "spec_invalid"
	// CodeNotFound: the job (or requested sub-resource, e.g. a trace on
	// an untraced daemon, the store on a storeless one) does not exist.
	// HTTP 404.
	CodeNotFound = "not_found"
	// CodeNotDone: the job exists but has not produced a result yet.
	// HTTP 409.
	CodeNotDone = "not_done"
	// CodeLeaseGone: the lease is unknown, expired, superseded or its
	// job was cancelled; the worker should drop the chunk. HTTP 410.
	CodeLeaseGone = "lease_gone"
	// CodeBadRecords: a completion's records do not match the leased
	// chunk. HTTP 422.
	CodeBadRecords = "bad_records"
	// CodeShutdown: the manager is draining and refuses new work.
	// HTTP 503.
	CodeShutdown = "shutdown"
	// CodeInternal: an unclassified server-side failure. HTTP 500.
	CodeInternal = "internal"
)

// APIError is one decoded v1 error envelope — the typed form of every
// non-2xx response body. Client methods return it (wrapped) so callers
// can switch on Code or errors.As for the structured fields instead of
// parsing message strings.
type APIError struct {
	// Status is the HTTP status the envelope arrived under (0 when the
	// error was built server-side, where the status travels separately).
	Status int `json:"-"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Details carries optional structured context (e.g. the offending
	// field of a rejected spec).
	Details map[string]string `json:"details,omitempty"`
}

func (e *APIError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("api error %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("api error (%s): %s", e.Code, e.Message)
}

// errorEnvelope is the wire shape of every non-2xx response:
// {"error":{"code":"...","message":"...","details":{...}}}.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// classify maps a service error to its HTTP status and stable code.
// It is the single decision table behind every error response; handlers
// never pick statuses ad hoc.
func classify(err error) (status int, code string) {
	switch {
	case errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable, CodeShutdown
	case errors.Is(err, ErrBadSpec):
		return http.StatusBadRequest, CodeSpecInvalid
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrNoTrace):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrNotDone):
		return http.StatusConflict, CodeNotDone
	case errors.Is(err, ErrLeaseGone):
		return http.StatusGone, CodeLeaseGone
	case errors.Is(err, ErrBadRecords):
		return http.StatusUnprocessableEntity, CodeBadRecords
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// writeAPIError is the one shared helper every handler routes non-2xx
// responses through (tools/servicelint enforces this statically): it wraps
// the error in the envelope under its classified status and code.
// Handlers that know better than the classifier (e.g. a 400 for an
// unreadable body) pass an explicit status and code via writeAPIErrorAs.
func writeAPIError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	writeAPIErrorAs(w, status, code, err, nil)
}

// writeAPIErrorAs writes the error envelope under an explicit status
// and code, with optional structured details. It is the only place in
// the package that hands a non-2xx status to writeJSON.
func writeAPIErrorAs(w http.ResponseWriter, status int, code string, err error, details map[string]string) {
	writeJSON(w, status, errorEnvelope{Error: APIError{
		Code:    code,
		Message: err.Error(),
		Details: details,
	}})
}

// decodeAPIError turns a non-2xx response into a typed *APIError,
// tolerating the legacy {"error":"message"} shape and bare bodies so a
// new client degrades gracefully against an old daemon.
func decodeAPIError(resp *http.Response, raw []byte) *APIError {
	var env errorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		e := env.Error
		e.Status = resp.StatusCode
		return &e
	}
	var legacy struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &legacy) == nil && legacy.Error != "" {
		msg = legacy.Error
	}
	if msg == "" {
		msg = resp.Status
	}
	return &APIError{Status: resp.StatusCode, Code: codeForStatus(resp.StatusCode), Message: msg}
}

// codeForStatus back-fills a code for envelopes that arrived without
// one (legacy daemons, proxies speaking plain text).
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeNotDone
	case http.StatusGone:
		return CodeLeaseGone
	case http.StatusUnprocessableEntity:
		return CodeBadRecords
	case http.StatusServiceUnavailable:
		return CodeShutdown
	default:
		return CodeInternal
	}
}
