package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// post sends body to base+path and returns the status and body.
func post(t *testing.T, base, path string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// edgeBody is one request of TestDecodeEdgeBodies: a body that sits at
// the border of what the request decoder accepts, with the answer it
// gets. A 200 answer is named by the canonical request it must equal
// (same), any other answer is spelled out (body).
type edgeBody struct {
	name, path, req string
	status          int
	same, body      string
}

// edgeBodies lists the edge cases over the alpha fixture. rows is the
// fixture's behavior as a JSON array, and canon maps each name a case
// can use as same to its canonical body.
func edgeBodies(t testing.TB) (cases []edgeBody, canon map[string]string) {
	fx := getFixture(t)
	quoted := make([]string, len(fx["alpha"].behavior))
	for i, r := range fx["alpha"].behavior {
		quoted[i] = `"` + r + `"`
	}
	rows := "[" + strings.Join(quoted, ",") + "]"
	spaced := "[ " + strings.Join(quoted, " ,\n ") + " ]"
	alpha3 := `{"dict":"alpha","k":3,"behavior":` + rows + `}`
	beta0 := string(diagnoseBody(t, "beta", "", 0))
	canon = map[string]string{
		"alpha3": alpha3,
		"alpha0": `{"dict":"alpha","behavior":` + rows + `}`,
		"batch":  `{"requests":[` + alpha3 + `,` + beta0 + `]}`,
	}
	const (
		single = "/v1/diagnose"
		batch  = "/v1/diagnose/batch"
	)
	cases = []edgeBody{
		{name: "escaped value", path: single, req: `{"dict":"\u0061lpha","k":3,"behavior":` + rows + `}`, status: 200, same: "alpha3"},
		{name: "escaped key", path: single, req: `{"dic\u0074":"alpha","k":3,"behavior":` + rows + `}`, status: 200, same: "alpha3"},
		{name: "key case", path: single, req: `{"DICT":"alpha","K":3,"Behavior":` + rows + `}`, status: 200, same: "alpha3"},
		{name: "duplicate key", path: single, req: `{"dict":"beta","k":1,"dict":"alpha","k":3,"behavior":` + rows + `}`, status: 200, same: "alpha3"},
		{name: "float k", path: single, req: `{"dict":"alpha","k":1.0,"behavior":` + rows + `}`, status: 400,
			body: `{"error":"bad request body: json: cannot unmarshal number 1.0 into Go struct field DiagnoseRequest.k of type int"}` + "\n"},
		{name: "null k", path: single, req: `{"dict":"alpha","k":null,"behavior":` + rows + `}`, status: 200, same: "alpha0"},
		{name: "null behavior", path: single, req: `{"dict":"alpha","behavior":null}`, status: 400,
			body: `{"error":"behavior has 0 rows, dictionary expects 4 outputs"}` + "\n"},
		{name: "non-ASCII id", path: single, req: `{"dict":"alphä","k":3,"behavior":` + rows + `}`, status: 400,
			body: `{"error":"invalid dictionary id \"alphä\""}` + "\n"},
		{name: "whitespace everywhere", path: single, req: " \t\n{ \"dict\" :\r\"alpha\" ,\n \"k\" : 3 , \"behavior\" : " + spaced + " }\n\t ", status: 200, same: "alpha3"},
		{name: "trailing junk", path: single, req: alpha3 + `}{"junk"`, status: 200, same: "alpha3"},
		{name: "empty body", path: single, req: "", status: 400,
			body: `{"error":"bad request body: EOF"}` + "\n"},
		{name: "truncated", path: single, req: alpha3[:len(alpha3)-3], status: 400,
			body: `{"error":"bad request body: unexpected EOF"}` + "\n"},
		{name: "unknown key", path: single, req: `{"dict":"alpha","kk":3,"behavior":` + rows + `}`, status: 400,
			body: `{"error":"bad request body: json: unknown field \"kk\""}` + "\n"},
		{name: "batch escaped item", path: batch, req: `{"requests":[` + strings.Replace(alpha3, `"alpha"`, `"\u0061lpha"`, 1) + `,` + beta0 + `]}`, status: 200, same: "batch"},
		{name: "batch key case", path: batch, req: `{"REQUESTS":[` + alpha3 + `,` + beta0 + `]}`, status: 200, same: "batch"},
		{name: "batch trailing junk", path: batch, req: canon["batch"] + ` x`, status: 200, same: "batch"},
		{name: "batch null", path: batch, req: `{"requests":null}`, status: 400,
			body: `{"error":"empty batch"}` + "\n"},
		{name: "batch truncated", path: batch, req: canon["batch"][:len(canon["batch"])-2], status: 400,
			body: `{"error":"bad request body: unexpected EOF"}` + "\n"},
	}
	return cases, canon
}

// TestDecodeEdgeBodies pins the status and exact body of every edge
// request, sent straight to a replica and through a two-replica router.
func TestDecodeEdgeBodies(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	cases, canon := edgeBodies(t)
	for _, base := range []string{tc.backends[0].URL, tc.front.URL} {
		want := make(map[string]string)
		for name, req := range canon {
			path := "/v1/diagnose"
			if name == "batch" {
				path += "/batch"
			}
			status, body := post(t, base, path, []byte(req))
			if status != http.StatusOK {
				t.Fatalf("canonical %s: status %d: %s", name, status, body)
			}
			want[name] = body
		}
		for _, c := range cases {
			status, body := post(t, base, c.path, []byte(c.req))
			wantBody := c.body
			if c.same != "" {
				wantBody = want[c.same]
			}
			if status != c.status || body != wantBody {
				t.Errorf("%s via %s: got %d %q, want %d %q", c.name, base, status, body, c.status, wantBody)
			}
		}
	}
}

// TestOverCapBodyParity sends a valid request followed by enough
// whitespace to pass the body cap, straight to a replica and through
// the router: both tiers read the whole body under the cap, so both
// must refuse it with the same bytes.
func TestOverCapBodyParity(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	_, canon := edgeBodies(t)
	pad := strings.Repeat(" ", 9<<20)
	for _, c := range []struct{ path, req string }{
		{"/v1/diagnose", canon["alpha3"]},
		{"/v1/diagnose/batch", canon["batch"]},
	} {
		body := []byte(c.req + pad)
		dStatus, dBody := post(t, tc.backends[0].URL, c.path, body)
		rStatus, rBody := post(t, tc.front.URL, c.path, body)
		if dStatus != rStatus || dBody != rBody {
			t.Errorf("%s: direct %d %q, routed %d %q", c.path, dStatus, dBody, rStatus, rBody)
		}
		want := `{"error":"bad request body: http: request body too large"}` + "\n"
		if dStatus != http.StatusBadRequest || dBody != want {
			t.Errorf("%s: direct %d %q, want 400 %q", c.path, dStatus, dBody, want)
		}
	}
}

// FuzzDecodeRequest checks the scanner against encoding/json at all
// four places it serves. Whenever it accepts a body, the replica's
// single and batch decodes must equal strict encoding/json's, the
// router's routing key must equal a tolerant peek's, and the router's
// batch split must give the items and keys of its encoding/json path.
func FuzzDecodeRequest(f *testing.F) {
	cases, canon := edgeBodies(f)
	for _, c := range cases {
		f.Add([]byte(c.req))
	}
	for name, req := range canon {
		// The canonical bodies are the shape clients send: the scanner
		// must take them, or the differential below checks nothing.
		s := scanner{b: []byte(req)}
		ok := s.object(&DiagnoseRequest{}, false) && s.end()
		if name == "batch" {
			s = scanner{b: []byte(req)}
			_, _, ok = s.batch(false)
		}
		if !ok {
			f.Fatalf("scanner declines canonical %s", name)
		}
		f.Add([]byte(req))
	}
	for _, gr := range goldenRouterRequests(f) {
		f.Add([]byte(gr.body))
	}
	for _, body := range []string{
		`{}`, `{"requests":[]}`, `{"dict":"a","behavior":[],"method":"","k":-0,"auto_k":false,"max_k":123456789012345678}`,
		`{"dict":"a","k":1234567890123456789}`, `{"dict":"a","max_k":9999999999999999999}`, `{"dict":"a","k":01}`, `{"dict":"a","auto_k":truex}`,
		`{"dict":"a\tb"}`, "{\"dict\":\"a\x7fb\"}", `{"requests":[{}],"requests":[{}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got DiagnoseRequest
		s := scanner{b: body, src: string(body)}
		if s.object(&got, true) && s.end() {
			var want DiagnoseRequest
			if err := strictJSON(body, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("single %q: scanned %+v, encoding/json %+v (%v)", body, got, want, err)
			}
			var peek struct {
				Dict string `json:"dict"`
			}
			if err := json.Unmarshal(body, &peek); err != nil || keyOf(body) != peek.Dict {
				t.Fatalf("key of %q: %q, encoding/json %q (%v)", body, keyOf(body), peek.Dict, err)
			}
		}
		s = scanner{b: body, src: string(body)}
		if reqs, _, ok := s.batch(true); ok {
			var want BatchRequest
			if err := strictJSON(body, &want); err != nil || !reflect.DeepEqual(BatchRequest{reqs}, want) {
				t.Fatalf("batch %q: scanned %+v, encoding/json %+v (%v)", body, reqs, want, err)
			}
			var raw struct {
				Requests []json.RawMessage `json:"requests"`
			}
			if err := strictJSON(body, &raw); err != nil {
				t.Fatal(err)
			}
			items, keys, ok := splitBatch(body)
			if !ok || len(items) != len(raw.Requests) {
				t.Fatalf("split %q: %d items (%v), encoding/json %d", body, len(items), ok, len(raw.Requests))
			}
			for i, item := range raw.Requests {
				var peek struct {
					Dict string `json:"dict"`
				}
				_ = json.Unmarshal(item, &peek)
				if !bytes.Equal(items[i], item) || keys[i] != peek.Dict {
					t.Fatalf("split %q item %d: %q key %q, encoding/json %q key %q", body, i, items[i], keys[i], item, peek.Dict)
				}
			}
		}
	})
}

// parseBehaviorScalar is the oracle for parseBehavior: one Behavior.Set
// per pattern.
func parseBehaviorScalar(rowStrs []string, rows, cols int) (*core.Behavior, error) {
	if len(rowStrs) != rows {
		return nil, fmt.Errorf("behavior has %d rows, dictionary expects %d outputs", len(rowStrs), rows)
	}
	b := core.NewBehavior(rows, cols)
	for i, row := range rowStrs {
		if len(row) != cols {
			return nil, fmt.Errorf("behavior row %d has %d columns, dictionary expects %d patterns", i, len(row), cols)
		}
		for j := 0; j < cols; j++ {
			switch row[j] {
			case '0':
			case '1':
				b.Set(i, j, true)
			default:
				return nil, fmt.Errorf("behavior row %d column %d: %q is not '0' or '1'", i, j, row[j])
			}
		}
	}
	return b, nil
}

// TestParseBehaviorMatchesScalar compares the word-row parse with the
// scalar oracle on random matrices around the word boundaries, with and
// without a bad byte, a short row or a missing row.
func TestParseBehaviorMatchesScalar(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 2000; trial++ {
		rows := 1 + r.IntN(4)
		cols := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200}[r.IntN(10)]
		strs := make([]string, rows)
		for i := range strs {
			row := make([]byte, cols)
			for j := range row {
				row[j] = '0' + byte(r.IntN(2))
			}
			strs[i] = string(row)
		}
		switch r.IntN(4) {
		case 0:
			if i := r.IntN(rows); cols > 0 {
				row := []byte(strs[i])
				row[r.IntN(cols)] = "2x \x00\xff/"[r.IntN(6)]
				strs[i] = string(row)
			}
		case 1:
			if i := r.IntN(rows); cols > 0 {
				strs[i] = strs[i][:cols-1]
			}
		case 2:
			strs = strs[:rows-1]
		}
		want, werr := parseBehaviorScalar(strs, rows, cols)
		got, gerr := parseBehavior(strs, rows, cols)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%dx%d %q: error %v, scalar %v", rows, cols, strs, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if got.String() != want.String() {
			t.Fatalf("%dx%d: parsed\n%s, scalar\n%s", rows, cols, got, want)
		}
		for i := 0; i < rows; i++ {
			for w := 0; w < want.WordsPerRow(); w++ {
				if got.Word(i, w) != want.Word(i, w) {
					t.Fatalf("%dx%d row %d word %d: %#x, scalar %#x", rows, cols, i, w, got.Word(i, w), want.Word(i, w))
				}
			}
		}
		behaviorPool.Put(got)
	}
}

// TestSizedReadMatchesReadAll checks the Content-Length-sized body
// reads against io.ReadAll, the read they replace: readBody on a
// request of known length, of unknown length (chunked) and over the
// cap, and fetch on responses within and past its limit.
func TestSizedReadMatchesReadAll(t *testing.T) {
	const limit = 64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sized", func(w http.ResponseWriter, r *http.Request) {
		if body, ok := readBody(w, r, limit); ok {
			_, _ = w.Write(body)
		}
	})
	mux.HandleFunc("POST /plain", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		_, _ = w.Write(body)
	})
	mux.HandleFunc("GET /resp", func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		data := bytes.Repeat([]byte("r"), n)
		if r.URL.Query().Has("chunked") {
			_, _ = w.Write(data[:n/2])
			w.(http.Flusher).Flush()
			_, _ = w.Write(data[n/2:])
			return
		}
		w.Header().Set("Content-Length", fmt.Sprint(n))
		_, _ = w.Write(data)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// chunked hides a body's length from the client, so it goes out
	// with Transfer-Encoding: chunked and no Content-Length.
	type chunked struct{ io.Reader }
	exact := strings.Repeat("e", limit)
	over := strings.Repeat("o", limit+1)
	for _, c := range []struct {
		name string
		body func() io.Reader
		want int
	}{
		{"exact length", func() io.Reader { return strings.NewReader(exact) }, http.StatusOK},
		{"chunked", func() io.Reader { return chunked{strings.NewReader(exact[:limit/2])} }, http.StatusOK},
		{"over the cap", func() io.Reader { return strings.NewReader(over) }, http.StatusBadRequest},
		{"over the cap, chunked", func() io.Reader { return chunked{strings.NewReader(over)} }, http.StatusBadRequest},
	} {
		var got [2]string
		for i, path := range []string{"/sized", "/plain"} {
			resp, err := http.Post(srv.URL+path, "application/json", c.body())
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.want {
				t.Errorf("%s via %s: status %d, want %d", c.name, path, resp.StatusCode, c.want)
			}
			got[i] = string(data)
		}
		if got[0] != got[1] {
			t.Errorf("%s: sized read %q, io.ReadAll %q", c.name, got[0], got[1])
		}
		if c.want == http.StatusBadRequest && got[0] != `{"error":"bad request body: http: request body too large"}`+"\n" {
			t.Errorf("%s: over-cap answer %q", c.name, got[0])
		}
	}

	for _, path := range []string{"/resp?n=64", "/resp?n=65", "/resp?n=65&chunked"} {
		res, err := fetch(context.Background(), http.DefaultClient, http.MethodGet, srv.URL+path, nil, nil, limit)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(io.LimitReader(resp.Body, limit))
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.body, want) || len(want) != limit {
			t.Errorf("fetch %s: %d bytes, io.ReadAll %d (limit %d)", path, len(res.body), len(want), limit)
		}
	}

	// A known length within the limit is read into one buffer.
	b, err := readAll(strings.NewReader(exact), limit, limit)
	if err != nil || string(b) != exact || cap(b) != limit+1 {
		t.Errorf("sized read: %d bytes, cap %d, err %v; want %d bytes, cap %d", len(b), cap(b), err, limit, limit+1)
	}
}
