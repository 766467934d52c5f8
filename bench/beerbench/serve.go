package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/service"
	"repro/internal/store"
)

// pollInterval is how long a polling client waits between status reads.
const pollInterval = 10 * time.Millisecond

// serveInput is one submission: the job spec and how the client follows
// the job (an SSE stream, or status polls).
type serveInput struct {
	spec service.JobSpec
	sse  bool
}

// inputStream is a workload's deterministic submission sequence. The
// generator is sequential (later draws depend on earlier ones), so
// operation n's input is the same whichever caller runs it.
type inputStream struct {
	mu   sync.Mutex
	seq  []serveInput
	next func() serveInput
}

func (s *inputStream) at(n int64) serveInput {
	s.mu.Lock()
	defer s.mu.Unlock()
	for int64(len(s.seq)) <= n {
		s.seq = append(s.seq, s.next())
	}
	return s.seq[n]
}

// newHotStream draws serve-hot's submissions from twelve k=8 specs on chip
// seed 1: exact A/B/C × ±anti-cell rows, noisy A/B/C at fp=0.01 and planned
// A/B/C. Submissions cycle through the classes in the ratio 8:1:1. 85% of
// them re-draw a spec of their class submitted before, Zipf(1.5) over first
// use, as repeat traffic concentrates on a hot set; the rest take the
// class's next spec in turn. So the class mix and the popularity ranking
// are the same for every seed, and the seed sets the sequence. 25% of
// clients follow the job over SSE.
func newHotStream(seed uint64) *inputStream {
	rng := rand.New(rand.NewPCG(seed, 0x407))
	base := service.JobSpec{Type: "recover", K: 8, Patterns: "12", Rounds: 1, MaxWindowMinutes: 48, Verify: true, Seed: 1}
	classes := make([][]service.JobSpec, 3)
	for _, anti := range []bool{false, true} {
		for _, m := range manufacturers {
			exact := base
			exact.Manufacturer = string(m)
			exact.UseAntiRows = anti
			classes[0] = append(classes[0], exact)
		}
	}
	for _, m := range manufacturers {
		spec := base
		spec.Manufacturer = string(m)
		noisy := spec
		noisy.NoiseFP = 0.01
		classes[1] = append(classes[1], noisy)
		planned := spec
		planned.Plan = true
		classes[2] = append(classes[2], planned)
	}
	cycle := []int{0, 0, 0, 0, 1, 0, 0, 0, 0, 2} // classes in the ratio 8:1:1
	turns := make([]int, len(classes))           // a class's specs taken in turn so far
	zipfs := make([]*rand.Zipf, len(classes))
	var n int64
	return &inputStream{next: func() serveInput {
		c := cycle[n%int64(len(cycle))]
		class := classes[c]
		var spec service.JobSpec
		if turns[c] > 0 && rng.Float64() < 0.85 {
			spec = class[zipfs[c].Uint64()]
		} else {
			spec = class[turns[c]%len(class)]
			turns[c]++
			if turns[c] <= len(class) {
				zipfs[c] = rand.NewZipf(rng, 1.5, 1, uint64(turns[c]-1))
			}
		}
		n++
		return serveInput{spec: spec, sse: rng.Float64() < 0.25}
	}}
}

// newColdStream draws serve-cold's submissions: beerd's default k=16
// recovery (48-minute sweep × 3 rounds, {1,2}-CHARGED patterns) on a new
// chip seed every job. Classes cycle plain, anti-cell rows, ..., planned
// (3:3:1) while manufacturers cycle A/B/C, so every 21 jobs cover each
// pair once; every fourth client follows the job over SSE.
func newColdStream(seed uint64) *inputStream {
	var n int64
	return &inputStream{next: func() serveInput {
		spec := service.JobSpec{
			Type: "recover", K: 16, Patterns: "12", Rounds: 3, MaxWindowMinutes: 48, Verify: true,
			Manufacturer: string(manufacturers[n%int64(len(manufacturers))]),
			Seed:         opSeed(seed, n),
		}
		switch n % 7 {
		case 1, 3, 5:
			spec.UseAntiRows = true
		case 6:
			spec.Plan = true
		}
		in := serveInput{spec: spec, sse: n%4 == 0}
		n++
		return in
	}}
}

// serveSystem is a standalone beerd on a loopback listener in this
// process, driven over HTTP by the benchmark's own client.
type serveSystem struct {
	srv, inner *service.Server
	st         *store.Store
	hs         *http.Server
	served     chan struct{}
	base       string
	transport  *http.Transport
	client     *http.Client
	dir        string
	inputs     *inputStream
	truth      map[string]*repro.Code
}

var storeSeq atomic.Int64

// newServeSystem starts the server: an engine, a result store (in memory,
// or files under the scratch directory), beerd itself, the listener and a
// client limited to two connections. Traced, the store backend, the
// executor and the solver backend are wrapped.
func newServeSystem(cfg setupConfig, onFile bool, inputs *inputStream) (_ *serveSystem, err error) {
	s := &serveSystem{inputs: inputs, served: make(chan struct{})}
	engine := repro.NewEngine(engineWorkers)
	var backend store.Backend = store.NewMemBackend()
	if onFile {
		s.dir = filepath.Join(cfg.scratch, fmt.Sprintf("store-%d-%d", os.Getpid(), storeSeq.Add(1)))
		if backend, err = store.NewFileBackend(s.dir); err != nil {
			return nil, err
		}
	}
	opts := []service.Option{}
	if tr := cfg.tr; tr != nil {
		backend = tracedStore{Backend: backend, tr: tr}
		s.inner = service.New(engine, service.WithSolverOptions(repro.WithSolverBackend(func() repro.SolverBackend {
			return &tracedBackend{Backend: repro.NewSolverBackend(), tr: tr, job: tr.currentJob()}
		})))
		opts = append(opts, service.WithExecutor(tracedExecutor{inner: s.inner.Executor(), tr: tr}))
	}
	s.st = store.New(backend)
	s.srv = service.New(engine, append(opts, service.WithStore(s.st))...)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(s.served)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.served)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("server: %v", err)
		}
	}()
	s.transport = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
	s.client = &http.Client{Transport: s.transport}
	if err := s.get(context.Background(), "/healthz", &map[string]any{}); err != nil {
		return nil, fmt.Errorf("health check: %w", err)
	}
	s.truth = map[string]*repro.Code{}
	for _, k := range []int{8, 16} {
		for _, m := range manufacturers {
			s.truth[truthKey(string(m), k)] = repro.GroundTruth(repro.SimulatedChip(m, k, truthSeed))
		}
	}
	return s, nil
}

func truthKey(mfr string, k int) string { return mfr + "/" + strconv.Itoa(k) }

func (s *serveSystem) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.hs.Shutdown(ctx); err != nil {
			s.hs.Close()
		}
		cancel()
		<-s.served
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	s.srv.Close()
	if s.inner != nil {
		s.inner.Close()
	}
	if err := s.st.Close(); err != nil {
		logf("store close: %v", err)
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			logf("removing %s: %v", s.dir, err)
		}
	}
}

// op submits one job, follows it to a terminal state, fetches and checks
// its result. Latency runs from the POST being sent to the result being
// received and verified.
func (s *serveSystem) op(ctx context.Context, n int64, rec *opRec) (time.Duration, error) {
	in := s.inputs.at(n)
	start := time.Now()
	id, retries, err := s.submit(ctx, in.spec, rec)
	accepted := time.Now()
	if err == nil {
		if in.sse {
			err = s.awaitEvents(ctx, id, rec)
		} else {
			err = s.awaitPolls(ctx, id, rec)
		}
	}
	terminal := time.Now()
	var res service.JobResult
	if err == nil {
		from := time.Now()
		err = s.get(ctx, "/api/v1/jobs/"+id+"/result", &res)
		rec.span(spanResult, from, time.Now(), nil)
	}
	if err == nil {
		from := time.Now()
		err = s.verify(in.spec, res.Recover)
		rec.span(spanVerify, from, time.Now(), nil)
	}
	end := time.Now()
	if rec != nil {
		rec.finish(start, end, map[string]any{
			"job": id, "sse": in.sse, "retries": retries,
			"accepted_ns": rec.at(accepted), "terminal_ns": rec.at(terminal),
		})
	}
	return end.Sub(start), err
}

// submit POSTs the spec, retrying on 429/503 backpressure, and returns
// the job id.
func (s *serveSystem) submit(ctx context.Context, spec service.JobSpec, rec *opRec) (id string, retries int, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	for {
		from := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/api/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return "", retries, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.client.Do(req)
		if err != nil {
			return "", retries, err
		}
		var st service.JobStatus
		err = decode(resp, http.StatusAccepted, &st)
		rec.span(spanSubmit, from, time.Now(), nil)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			retries++
			select {
			case <-ctx.Done():
				return "", retries, ctx.Err()
			case <-time.After(pollInterval):
			}
			continue
		}
		return st.ID, retries, err
	}
}

// awaitPolls reads the job status every pollInterval until it is terminal.
func (s *serveSystem) awaitPolls(ctx context.Context, id string, rec *opRec) error {
	for {
		var st service.JobStatus
		from := time.Now()
		err := s.get(ctx, "/api/v1/jobs/"+id, &st)
		rec.span(spanStatus, from, time.Now(), nil)
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			return terminalError(st)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// awaitEvents follows the job's SSE stream to its done event.
func (s *serveSystem) awaitEvents(ctx context.Context, id string, rec *opRec) error {
	from := time.Now()
	defer func() { rec.span(spanEvents, from, time.Now(), nil) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event:"); ok {
			event = strings.TrimSpace(v)
			continue
		}
		v, ok := strings.CutPrefix(line, "data:")
		if !ok || event != "done" {
			continue
		}
		var st service.JobStatus
		if err := json.Unmarshal([]byte(v), &st); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		return terminalError(st)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended before done", id)
}

func terminalError(st service.JobStatus) error {
	if st.State != service.StateSucceeded {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

// verify is the serving oracle: the job must report a unique code that
// beerd itself matched against the chip's ground truth, and the code it
// returns must be the manufacturer's ECC function.
func (s *serveSystem) verify(spec service.JobSpec, r *service.RecoverResult) error {
	what := fmt.Sprintf("mfr %s k=%d seed %d", spec.Manufacturer, spec.K, spec.Seed)
	switch {
	case r == nil:
		return fmt.Errorf("%s: result has no recovery", what)
	case !r.Unique:
		return fmt.Errorf("%w: %d candidates (%s)", errNotUnique, r.Candidates, what)
	case r.GroundTruthMatch == nil:
		return fmt.Errorf("%s: beerd did not verify the result", what)
	case !*r.GroundTruthMatch:
		return &abortError{"wrong unique code: " + what + ": beerd reports ground_truth_match false"}
	}
	code := new(repro.Code)
	if err := code.UnmarshalText([]byte(r.Code)); err != nil {
		return fmt.Errorf("%s: unparseable code: %w", what, err)
	}
	truth, ok := s.truth[truthKey(spec.Manufacturer, spec.K)]
	if !ok {
		return fmt.Errorf("%s: no ground truth", what)
	}
	return checkCode(code, truth, what)
}

func (s *serveSystem) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	return decode(resp, http.StatusOK, out)
}

// decode reads a JSON body, requiring the given status, and releases the
// connection to the pool.
func decode(resp *http.Response, want int, out any) error {
	defer drain(resp)
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: HTTP %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
