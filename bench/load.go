package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// clients is the closed-loop concurrency: two callers that each wait for
// their job's last record before submitting the next, as
// `sweep run -daemon` users do. With the two workers that is no more
// client threads or connections than the box has cores.
const clients = 2

// keepStreams is how many leading jobs of a phase keep their whole
// record stream, for the traced run's comparison against the probe.
const keepStreams = 8

// jobRun is one job as a client saw it.
type jobRun struct {
	idx  int
	spec jobSpec
	id   string
	err  error // transport error, HTTP error or a non-done end state

	start, end time.Time     // POST sent .. last record read
	submit     time.Duration // POST round trip
	polls      []time.Duration
	records    time.Duration // GET records round trip
	total      int           // progress.total at done
	lines      int           // records streamed
	bytes      int
	sameAsFill bool   // a resubmission streamed its fill job's exact bytes
	checkLine  []byte // the seed-chosen record's line
	stream     []byte // the whole stream, when the load asked to keep it

	// Traced runs only: the job's spans and trace coverage, read right
	// after it finished, before later jobs evict them from the ring.
	spans    []spanIv
	coverage float64
}

func (r *jobRun) wall() time.Duration { return r.end.Sub(r.start) }

// client is one closed-loop caller with its own connection.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 5 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get sends one GET and reads the body into c.buf.
func (c *client) get(path string) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// pollDelay is the wait before the next status poll: 1 ms after submit,
// then a twentieth of the time the job has taken so far, between 1 and
// 50 ms. Quantisation then stays within 5% of a job's time without the
// client spinning on a core the system under test needs.
func pollDelay(elapsed time.Duration) time.Duration {
	d := elapsed / 20
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// run submits one job, polls it to a terminal state and streams its
// records. keep asks for the whole stream to be retained; pick chooses
// the record kept for the check (pick mod total); a resubmission's
// stream is compared with fills[js.fill].
func (c *client) run(js jobSpec, keep bool, pick uint64, fills [][]byte) *jobRun {
	r := &jobRun{spec: js, start: time.Now()}
	r.err = c.do(r, keep, pick, fills)
	r.end = time.Now()
	return r
}

func (c *client) do(r *jobRun, keep bool, pick uint64, fills [][]byte) error {
	resp, err := c.hc.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(r.spec.body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var v service.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.submit = time.Since(r.start)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	r.id = v.ID

	time.Sleep(time.Millisecond)
	for {
		t := time.Now()
		status, err := c.get("/api/v1/jobs/" + r.id)
		r.polls = append(r.polls, time.Since(t))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("poll %s: HTTP %d (%v)", r.id, status, err)
		}
		if err := json.Unmarshal(c.buf.Bytes(), &v); err != nil {
			return fmt.Errorf("poll %s: %w", r.id, err)
		}
		if v.State.Terminal() {
			break
		}
		time.Sleep(pollDelay(time.Since(r.start)))
	}
	if v.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", r.id, v.State, v.Error)
	}
	r.total = v.Progress.Total

	t := time.Now()
	status, err := c.get("/api/v1/jobs/" + r.id + "/records")
	r.records = time.Since(t)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("records %s: HTTP %d (%v)", r.id, status, err)
	}
	body := c.buf.Bytes()
	r.bytes = len(body)
	r.lines = bytes.Count(body, []byte{'\n'})
	if r.spec.fill >= 0 {
		r.sameAsFill = bytes.Equal(body, fills[r.spec.fill])
	}
	if r.total > 0 {
		r.checkLine = nthLine(body, int(pick%uint64(r.total)))
	}
	if keep {
		r.stream = append([]byte(nil), body...)
	}
	return nil
}

// nthLine returns a copy of line k (0-based) of an NDJSON body, nil when
// the body is shorter.
func nthLine(body []byte, k int) []byte {
	for ; k > 0; k-- {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil
		}
		body = body[i+1:]
	}
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		body = body[:i]
	}
	if len(body) == 0 {
		return nil
	}
	return append([]byte(nil), body...)
}

// checkPick is the seed-chosen record index (mod the job's size) the
// record check re-evaluates for job i.
func checkPick(seed uint64, i int) uint64 {
	return rng.New(seed).Split(tagCheck).Split(uint64(i)).Uint64()
}

// phase bounds one measured phase: it ends at the deadline, or after
// maxJobs jobs when that is positive (the test's tiny mode). Jobs
// submitted before the deadline run to completion and count.
type phase struct {
	length  time.Duration
	maxJobs int
}

// load is one closed loop: lanes clients take jobs from the list in
// order, each submitting its next job only after the previous one
// streamed its last record, and pausing think(i) (when set) before each
// of its jobs after the first.
type load struct {
	lanes int
	job   func(i int) jobSpec
	think func(i int) time.Duration
	// keep is how many leading jobs retain their whole stream.
	keep int
	// fills are the set-up jobs' streams resubmissions must reproduce.
	fills [][]byte
	seed  uint64 // picks each job's checked record
}

// drive runs the loop against the daemon at base. after, when non-nil,
// runs on the client's goroutine once a job succeeded. The returned
// runs are in job-list order; wall spans the first submit to the last
// record read.
func (l load) drive(base string, p phase, after func(*jobRun)) (runs []*jobRun, wall time.Duration) {
	start := time.Now()
	deadline := start.Add(p.length)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < l.lanes; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for first := true; time.Now().Before(deadline); first = false {
				i := int(next.Add(1) - 1)
				if p.maxJobs > 0 && i >= p.maxJobs {
					return
				}
				if l.think != nil && !first {
					time.Sleep(l.think(i))
				}
				r := c.run(l.job(i), i < l.keep, checkPick(l.seed, i), l.fills)
				r.idx = i
				if after != nil && r.err == nil {
					after(r)
				}
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Every index a client took was run, so the indices are 0..n-1.
	end := start
	byIdx := make([]*jobRun, len(runs))
	for _, r := range runs {
		byIdx[r.idx] = r
		if r.end.After(end) {
			end = r.end
		}
	}
	return byIdx, end.Sub(start)
}
