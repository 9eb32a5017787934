package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/adserver"
	"repro/internal/metrics"
)

// RunOpts configures the open-loop runner.
type RunOpts struct {
	// Workers is the number of sender goroutines the schedule is
	// interleaved across. More workers = less open-loop drift when
	// requests outlive their inter-arrival gap. Default 4.
	Workers int

	dial func(ctx context.Context, network, addr string) (net.Conn, error) // nil: the default dialer
}

// requestTimeout bounds each request the runner sends.
const requestTimeout = 5 * time.Second

// Run fires the materialized request stream at baseURL open-loop: each
// request goes out at its scheduled offset whether or not earlier ones
// have answered (late answers never slow the arrival process — the
// property that makes overload visible as shedding rather than as a
// silently throttled generator). Results fold into one recorder set
// per worker, merged into the final report; the runner never retries,
// so every 429 and error in the report is one the cluster actually
// emitted past the router's own masking.
func Run(ctx context.Context, baseURL string, classes []Class, reqs []Request, opts RunOpts) metrics.RunReport {
	if opts.Workers < 1 {
		opts.Workers = 4
	}
	client := &http.Client{Transport: &http.Transport{DialContext: opts.dial, MaxIdleConnsPerHost: 64}, Timeout: requestTimeout}
	defer client.CloseIdleConnections()

	// Interleave the schedule across workers; each worker owns a full
	// recorder set so the hot loop is lock-free.
	shards := make([][]Request, opts.Workers)
	for i, rq := range reqs {
		shards[i%opts.Workers] = append(shards[i%opts.Workers], rq)
	}
	recs := make([][]*metrics.ClassRecorder, opts.Workers)
	for w := range recs {
		recs[w] = make([]*metrics.ClassRecorder, len(classes))
		for i, c := range classes {
			recs[w][i] = &metrics.ClassRecorder{Class: c.Name}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(ctx, client, baseURL, shards[w], recs[w], start)
		}(w)
	}
	wg.Wait()
	return metrics.BuildReport(recs, time.Since(start))
}

// runWorker sends one worker's slice of the schedule in order.
func runWorker(ctx context.Context, client *http.Client, baseURL string, reqs []Request, recs []*metrics.ClassRecorder, start time.Time) {
	for _, rq := range reqs {
		if ctx.Err() != nil {
			return
		}
		// Open-loop pacing: sleep until the scheduled offset. A late
		// schedule (previous request overran the gap) fires immediately.
		if wait := rq.Offset - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		sendOne(ctx, client, baseURL, rq, recs[rq.Class])
	}
}

// sendOne issues one request and accounts the outcome.
func sendOne(ctx context.Context, client *http.Client, baseURL string, rq Request, rec *metrics.ClassRecorder) {
	u := fmt.Sprintf("%s/search?q=%s&country=%s", baseURL, url.QueryEscape(rq.Query), rq.Country)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		rec.Sent++
		rec.Errors++
		return
	}
	rec.Sent++
	t0 := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		rec.Errors++
		rec.Latency.Observe(lat)
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	rec.Latency.Observe(lat)
	switch {
	case resp.StatusCode == http.StatusOK:
		var sr adserver.SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			rec.Errors++
			return
		}
		rec.OK++
		if len(sr.Ads) == 0 {
			rec.NoMatch++
		}
		rec.Ads += uint64(len(sr.Ads))
		for _, ad := range sr.Ads {
			if ad.Clicked {
				rec.Clicks++
			}
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		rec.Shed++
	case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
		// Capacity backpressure, not failure: a 503 carrying Retry-After
		// is the router saying every member is saturated or cooling
		// (router_no_backend). Injected backend 503s carry no hint and
		// still count as errors.
		rec.Shed++
	default:
		rec.Errors++
	}
}
