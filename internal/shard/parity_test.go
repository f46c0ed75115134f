package shard

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// upstreamRequests sums sgproxy_upstream_requests_total over shards.
func upstreamRequests(p *Proxy) uint64 {
	var n uint64
	for _, u := range p.state.Load().ups {
		n += u.metReq.Value()
	}
	return n
}

// errorBody reports whether body is a JSON {"error": "..."} document
// with a nonempty message.
func errorBody(body []byte) bool {
	var er struct {
		Error string `json:"error"`
	}
	return json.Unmarshal(body, &er) == nil && er.Error != ""
}

// TestProxyJSONParity: every malformed JSON body gets the same status
// and a JSON error body through the proxy as directly from a shard, so
// a client cannot tell which hop it talks to. The ragged batch is
// refused before any shard is contacted: framed as one n·d block it
// would otherwise be re-cut into points the client never sent.
func TestProxyJSONParity(t *testing.T) {
	shards, _ := startShards(t, 2)
	p := newTestProxy(t, shards, Config{})
	huge := `{"grid":"g0","points":[[0.5,0.5]` + strings.Repeat(`,[0.5,0.5]`, 120_000) + `]}`

	for _, tc := range []struct {
		name, path, body string
	}{
		{"valid", "/v1/eval/batch", `{"grid":"g0","points":[[0.1,0.2],[0.3,0.4]]}`},
		{"unknown field", "/v1/eval", `{"grid":"g0","point":[0.1,0.2],"typo":1}`},
		{"unknown field in batch", "/v1/eval/batch", `{"grid":"g0","points":[[0.1,0.2]],"typo":1}`},
		{"trailing data", "/v1/eval", `{"grid":"g0","point":[0.1,0.2]}junk`},
		{"empty body", "/v1/eval", ``},
		{"over MaxBodyBytes", "/v1/eval/batch", huge},
		{"ragged batch", "/v1/eval/batch", `{"grid":"g0","points":[[0.1,0.2],[0.3],[0.4,0.5,0.6]]}`},
		{"out of domain", "/v1/eval", `{"grid":"g0","point":[1.5,0.2]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct := httptest.NewRecorder()
			shards[0].srv.Handler().ServeHTTP(direct,
				httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)))
			before := upstreamRequests(p)
			proxied := proxyPost(p, tc.path, "application/json", "", []byte(tc.body))

			if proxied.Code != direct.Code {
				t.Fatalf("proxy answered %d %s; a shard answers %d %s",
					proxied.Code, proxied.Body, direct.Code, direct.Body)
			}
			if tc.name == "valid" {
				if direct.Code != http.StatusOK || proxied.Body.String() != direct.Body.String() {
					t.Fatalf("proxy %d %s, shard %d %s", proxied.Code, proxied.Body, direct.Code, direct.Body)
				}
				return
			}
			if direct.Code < 400 || !errorBody(proxied.Body.Bytes()) || !errorBody(direct.Body.Bytes()) {
				t.Fatalf("want a JSON error body from both hops: proxy %d %s, shard %d %s",
					proxied.Code, proxied.Body, direct.Code, direct.Body)
			}
			if tc.name == "ragged batch" {
				if !strings.Contains(proxied.Body.String(), "point 1 ") {
					t.Errorf("ragged batch error %s does not name point 1", proxied.Body)
				}
				if after := upstreamRequests(p); after != before {
					t.Errorf("a ragged batch reached a shard")
				}
			}
		})
	}
}

// TestProxyRelayWriteRefusesUnsafeNames: a write relay splices the grid
// name into the upstream URL, so an encoded '?', '/' or '#' — or a
// "../" walk to /metrics, whose redirect the relay's client would
// follow as a GET — must get the shard's own 400 JSON from the proxy
// before any upstream call.
func TestProxyRelayWriteRefusesUnsafeNames(t *testing.T) {
	shards := startOnlineShards(t, 1)
	p := newTestProxy(t, shards, Config{})
	body := `{"points":[[0.5,0.5]],"values":[1]}`
	for _, name := range []string{"a%3Fb", "a%2Fb", "a%23b", "..%2F..%2Fmetrics%3F"} {
		for _, verb := range []string{"observe", "refine"} {
			path := "/v1/grids/" + name + "/" + verb
			direct := httptest.NewRecorder()
			shards[0].srv.Handler().ServeHTTP(direct, httptest.NewRequest("POST", path, strings.NewReader(body)))
			before := upstreamRequests(p)
			proxied := proxyPost(p, path, "application/json", "", []byte(body))
			if proxied.Code != http.StatusBadRequest || !errorBody(proxied.Body.Bytes()) {
				t.Errorf("%s: proxy answered %d %.200q, want 400 JSON", path, proxied.Code, proxied.Body)
			}
			if proxied.Code != direct.Code || proxied.Body.String() != direct.Body.String() {
				t.Errorf("%s: proxy answered %d %.200q; the shard answers %d %.200q",
					path, proxied.Code, proxied.Body, direct.Code, direct.Body)
			}
			if after := upstreamRequests(p); after != before {
				t.Errorf("%s: the proxy contacted a shard", path)
			}
		}
	}
}
