package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	coma "repro"
	"repro/internal/server"
)

// service is one comaserve-equivalent instance: a 4-shard repository
// configured like comaserve's defaults (candidate index, persistent
// column cache, analyzer limit 256, sync always, no periodic
// checkpoints), served over HTTP on a loopback port.
type service struct {
	repo    *coma.ShardedRepository
	handler *server.Server
	srv     *http.Server
	base    string
	errc    chan error
	openDur time.Duration
}

func startService(dir string) (*service, error) {
	start := time.Now()
	repo, err := coma.OpenShardedRepository(dir, shards,
		coma.WithWorkers(0),
		coma.WithSyncPolicy(coma.SyncAlways()),
		coma.WithAnalyzerLimit(256),
		coma.WithPersistentColumnCache(),
		coma.WithCandidateIndex())
	if err != nil {
		return nil, err
	}
	openDur := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		repo.Close()
		return nil, err
	}
	handler := repo.Handler(
		coma.WithMatchTimeout(0),
		coma.WithQueueLimit(64),
		coma.WithQueueTimeout(30*time.Second),
		coma.WithMetrics(true))
	s := &service{
		repo:    repo,
		handler: handler,
		srv:     &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		errc:    make(chan error, 1),
		openDur: openDur,
	}
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, waits for its goroutine and closes
// the repository.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	httpClient.CloseIdleConnections()
	if cerr := s.repo.Close(); err == nil {
		err = cerr
	}
	return err
}

var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 4,
	DisableCompression:  true,
}}

// call performs one request and decodes a 2xx body into out. The
// latency runs from send to decoded response.
func call(method, u string, body []byte, out any) (status int, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, time.Since(start), fmt.Errorf("%s %s: HTTP %d: %s", method, u, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, time.Since(start), err
}

func (s *service) put(r request) (int, time.Duration, error) {
	return call(http.MethodPut, s.base+"/schemas/"+url.PathEscape(r.name), r.body, nil)
}

func (s *service) del(name string) (int, time.Duration, error) {
	return call(http.MethodDelete, s.base+"/schemas/"+url.PathEscape(name), nil, nil)
}

func (s *service) match(r request) (*server.MatchResponse, int, time.Duration, error) {
	var resp server.MatchResponse
	status, lat, err := call(http.MethodPost, s.base+"/match", r.body, &resp)
	return &resp, status, lat, err
}

// Phases of a run, for the operation accounting.
type phase int

const (
	phaseSetup phase = iota
	phaseWarmup
	phaseTimed
	phaseRestart
	numPhases
)

var phaseNames = [numPhases]string{"setup", "warmup", "timed", "restart"}

type phaseCount struct{ sent, ok, failed, refused atomic.Int64 }

// ledger counts every operation a run attempts — HTTP requests and the
// writer's checkpoints — by phase and outcome. A wrong result is a
// failure; a 429 or 503 is a refusal.
type ledger [numPhases]phaseCount

func (l *ledger) record(p phase, status int, err error) {
	c := &l[p]
	c.sent.Add(1)
	switch {
	case err == nil:
		c.ok.Add(1)
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		c.refused.Add(1)
	default:
		c.failed.Add(1)
	}
}

// wrong turns an operation already counted as succeeded into a failure:
// its response did not match the reference.
func (l *ledger) wrong(p phase) {
	l[p].ok.Add(-1)
	l[p].failed.Add(1)
}

func (l *ledger) totals() (sent, bad int64) {
	for i := range l {
		sent += l[i].sent.Load()
		bad += l[i].failed.Load() + l[i].refused.Load()
	}
	return sent, bad
}
