package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	envred "repro"
	"repro/internal/service"
)

// Raw Matrix Market bodies are parsed as they stream in; these tests pin
// the status codes and messages that buffering the body first used to
// guarantee.

func errorOf(t *testing.T, body []byte) string {
	t.Helper()
	var rep orderReply
	if err := json.Unmarshal(body, &rep); err != nil || rep.Error == "" {
		t.Fatalf("want a JSON error document, got %s (err %v)", body, err)
	}
	return rep.Error
}

// A body past MaxBodyBytes is 413 wherever the parse stops: at the limit
// itself, at a syntax error before the limit, or after the last declared
// entry with more bytes to come. The chunked variants carry no
// Content-Length, so only the streamed read can notice.
func TestOversizeStreamedBodyIs413(t *testing.T) {
	const limit = 256
	_, ts := newTestServer(t, service.Config{MaxBodyBytes: limit})
	grid := mmBody(t, envred.Grid(20, 20))
	header := "%%MatrixMarket matrix coordinate pattern symmetric\n4 4 1\n"
	cases := map[string][]byte{
		"limit hit mid-parse":       grid,
		"syntax error before limit": []byte("%%MatrixMarket matrix coordinate pattern symmetric\n400 400 1000\n2 x\n" + strings.Repeat("% pad\n", limit)),
		"trailing bytes past limit": []byte(header + "2 1\n" + strings.Repeat("% pad\n", limit)),
	}
	for name, body := range cases {
		if len(body) <= limit {
			t.Fatalf("%s: fixture is only %d bytes", name, len(body))
		}
		for _, chunked := range []bool{false, true} {
			var r io.Reader = bytes.NewReader(body)
			if chunked {
				r = io.MultiReader(r) // hides the length from net/http
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/order?algorithm=rcm", r)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s (chunked %v): %v", name, chunked, err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s (chunked %v): status %d, want 413: %s", name, chunked, resp.StatusCode, out)
			}
			if msg := errorOf(t, out); !strings.Contains(msg, fmt.Sprintf("%d-byte limit", limit)) {
				t.Fatalf("%s (chunked %v): error %q does not name the limit", name, chunked, msg)
			}
		}
	}
}

func TestEmptyRawBodyMessage(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	for _, path := range []string{"/v1/order?algorithm=rcm", "/v1/jobs?algorithm=rcm", "/v1/fiedler"} {
		resp, out := postMM(t, ts.URL+path, nil, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, out)
		}
		if msg := errorOf(t, out); !strings.HasPrefix(msg, "empty body") {
			t.Fatalf("%s: error %q, want the empty-body message", path, msg)
		}
	}
}

// watchedBody records whether the handler read the request body.
type watchedBody struct {
	r    io.Reader
	read bool
}

func (b *watchedBody) Read(p []byte) (int, error) { b.read = true; return b.r.Read(p) }
func (b *watchedBody) Close() error               { return nil }

// Query-string errors are answered before any of the body is read, for
// raw and JSON bodies alike.
func TestQueryErrorsBeforeBodyRead(t *testing.T) {
	svc, _ := newTestServer(t, service.Config{})
	body := string(mmBody(t, envred.Grid(5, 5)))
	for _, query := range []string{"seed=banana", "timeout=banana"} {
		for _, ctype := range []string{"", "application/json"} {
			wb := &watchedBody{r: strings.NewReader(body)}
			req := httptest.NewRequest(http.MethodPost, "/v1/order?algorithm=rcm&"+query, wb)
			if ctype != "" {
				req.Header.Set("Content-Type", ctype)
			}
			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %q: status %d, want 400: %s", query, ctype, rec.Code, rec.Body)
			}
			if wb.read {
				t.Fatalf("%s %q: the body was read before the query error", query, ctype)
			}
		}
	}
}
