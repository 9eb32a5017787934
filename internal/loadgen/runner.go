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
)

// requestTimeout bounds each request the runner sends.
const requestTimeout = 5 * time.Second

// run fires the materialized request stream at baseURL open-loop: one
// loop waits until each request is due and starts it on a goroutine of
// its own, so a late answer never delays a later arrival (overload shows
// as shedding, not as a silently throttled generator). The client's
// timeout ends every request, so at most about rate × requestTimeout
// goroutines are live at once. Each request's outcome lands in its own
// slot; after every request has answered, the slots are grouped by
// class and reported with exact latency quantiles. The runner never
// retries, so every 429 and error in the report is one the cluster
// actually emitted past the router's own masking. dial is the client's
// dialer (nil: the default).
func run(baseURL string, classes []Class, reqs []Request, dial func(ctx context.Context, network, addr string) (net.Conn, error)) RunReport {
	client := &http.Client{Transport: &http.Transport{DialContext: dial, MaxIdleConnsPerHost: 64}, Timeout: requestTimeout}
	defer client.CloseIdleConnections()

	outs := make([]outcome, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, rq := range reqs {
		if wait := rq.Offset - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = sendOne(client, baseURL, rq)
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	byClass := make([][]outcome, len(classes))
	for i, o := range outs {
		byClass[reqs[i].Class] = append(byClass[reqs[i].Class], o)
	}
	return buildReport(classes, byClass, wall)
}

// status is how the cluster answered one request.
type status uint8

const (
	statusFailed status = iota // transport error, undecodable 200, or any other status
	statusOK                   // 200 with a decoded ad block
	statusShed                 // 429: every member tried was at admission capacity
)

// outcome is one request's result, held until the report.
type outcome struct {
	status  status
	latency time.Duration
	ads     int // placements served
	clicks  int // clicked placements
}

// sendOne issues one request and classifies its answer.
func sendOne(client *http.Client, baseURL string, rq Request) outcome {
	u := fmt.Sprintf("%s/search?q=%s&country=%s", baseURL, url.QueryEscape(rq.Query), rq.Country)
	t0 := time.Now()
	resp, err := client.Get(u)
	o := outcome{status: statusFailed, latency: time.Since(t0)}
	if err != nil {
		return o
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		var sr adserver.SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return o
		}
		o.status, o.ads = statusOK, len(sr.Ads)
		for _, ad := range sr.Ads {
			if ad.Clicked {
				o.clicks++
			}
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		o.status = statusShed
	}
	return o
}
