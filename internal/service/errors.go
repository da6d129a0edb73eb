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
// breaking API change. errorTable pairs each with its HTTP status.
const (
	// CodeBadRequest: the request shape or a named registry entry is
	// invalid (unknown kind, scenario, space, objective or budget,
	// malformed JSON body, bad list query).
	CodeBadRequest = "bad_request"
	// CodeSpecInvalid: the inline spec document failed strict parsing,
	// validation or compilation; the message names the offending field.
	CodeSpecInvalid = "spec_invalid"
	// CodeNotFound: the job (or requested sub-resource, e.g. a trace on
	// an untraced daemon, the store on a storeless one) does not exist.
	CodeNotFound = "not_found"
	// CodeNotDone: the job exists but has not produced a result yet.
	CodeNotDone = "not_done"
	// CodeLeaseGone: the lease is unknown, expired, superseded or its
	// job was cancelled; the worker should drop the chunk.
	CodeLeaseGone = "lease_gone"
	// CodeBadRecords: a completion's records do not match the leased
	// chunk.
	CodeBadRecords = "bad_records"
	// CodeShutdown: the manager is draining and refuses new work.
	CodeShutdown = "shutdown"
	// CodeInternal: an unclassified server-side failure.
	CodeInternal = "internal"
)

// errorRow pairs a sentinel error with the HTTP status and code it
// travels under.
type errorRow struct {
	err    error
	status int
	code   string
}

// errorTable is the v1 error contract, written once. The server answers
// an error with the first row whose sentinel it wraps (classify); a
// client reads a body that carries no code as the first row with its
// status (decodeAPIError), so ErrBadRequest precedes ErrBadSpec; a
// decoded envelope matches every sentinel of its code (APIError.Is);
// and the OpenAPI document enumerates its codes. The last row, without
// a sentinel, is the default for everything else.
var errorTable = []errorRow{
	{ErrShutdown, http.StatusServiceUnavailable, CodeShutdown},
	{ErrBadRequest, http.StatusBadRequest, CodeBadRequest},
	{ErrBadSpec, http.StatusBadRequest, CodeSpecInvalid},
	{ErrUnknownJob, http.StatusNotFound, CodeNotFound},
	{ErrNoTrace, http.StatusNotFound, CodeNotFound},
	{ErrNoStore, http.StatusNotFound, CodeNotFound},
	{ErrNotDone, http.StatusConflict, CodeNotDone},
	{ErrLeaseGone, http.StatusGone, CodeLeaseGone},
	{ErrBadRecords, http.StatusUnprocessableEntity, CodeBadRecords},
	{nil, http.StatusInternalServerError, CodeInternal},
}

// findRow returns the first sentinel row match accepts, else the
// default row.
func findRow(match func(errorRow) bool) errorRow {
	last := len(errorTable) - 1
	for _, r := range errorTable[:last] {
		if match(r) {
			return r
		}
	}
	return errorTable[last]
}

// APIError is one decoded v1 error envelope — the typed form of every
// non-2xx response body. Client methods return it (wrapped) so callers
// can test it with errors.Is against the service's sentinels, or
// errors.As it and switch on Code, instead of parsing message strings.
type APIError struct {
	// Status is the HTTP status the envelope arrived under (0 when the
	// error was built server-side, where the status travels separately).
	Status int `json:"-"`
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
}

func (e *APIError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("api error %d (%s): %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("api error (%s): %s", e.Code, e.Message)
}

// Is reports whether target is a sentinel of e's code, so a decoded
// response matches the error the server classified it from:
// errors.Is(err, ErrLeaseGone) holds for a 410 lease_gone, and a 404
// matches ErrUnknownJob, ErrNoTrace and ErrNoStore alike.
func (e *APIError) Is(target error) bool {
	for _, r := range errorTable {
		if r.err == target && r.code == e.Code {
			return true
		}
	}
	return false
}

// errorEnvelope is the wire shape of every non-2xx response:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error APIError `json:"error"`
}

// classify maps a service error to its HTTP status and stable code.
func classify(err error) (status int, code string) {
	r := findRow(func(r errorRow) bool { return errors.Is(err, r.err) })
	return r.status, r.code
}

// writeAPIError is the one helper every handler routes non-2xx
// responses through (tools/servicelint enforces this statically): it
// writes the error in the envelope under its classified status and
// code.
func writeAPIError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	writeJSON(w, status, errorEnvelope{Error: APIError{Code: code, Message: err.Error()}})
}

// decodeAPIError turns a non-2xx response into a typed *APIError,
// tolerating the legacy {"error":"message"} shape and bare bodies so a
// new client degrades gracefully against an old daemon or a proxy:
// those take the code of their status's row.
func decodeAPIError(status int, statusText string, raw []byte) *APIError {
	var env errorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		e := env.Error
		e.Status = status
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
		msg = statusText
	}
	code := findRow(func(r errorRow) bool { return r.status == status }).code
	return &APIError{Status: status, Code: code, Message: msg}
}
