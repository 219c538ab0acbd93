package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// goldenDiagnoseSHA256 pins every /v1/diagnose answer for the fixture
// dictionaries: each accepted method name (canonical and alias) plus
// one unknown name, under k 0, k 3 and auto_k. Any change to method
// parsing, scoring, ranking order, AutoK or response encoding moves it.
const goldenDiagnoseSHA256 = "d2b0ff8949bb3d2f51c9acfd1cd18f7ba720cb56a1fe546eb61ff1ad541e8535"

// goldenMethodNames lists the seven canonical method names, the five
// aliases the service accepts and one name it must reject.
var goldenMethodNames = []string{
	"Alg_sim-I", "Alg_sim-II", "Alg_sim-III", "Alg_rev", "L1", "chebyshev", "loglik",
	"", "rev", "I", "II", "III",
	"nosuch",
}

func TestDiagnoseResponsesGolden(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() { _ = s.Shutdown(context.Background()) }()

	fx := getFixture(t)
	h := sha256.New()
	n := 0
	for _, id := range []string{"alpha", "beta"} {
		rows := make([]string, len(fx[id].behavior))
		for i, r := range fx[id].behavior {
			rows[i] = fmt.Sprintf("%q", r)
		}
		for _, name := range goldenMethodNames {
			for _, mode := range []string{`"k":0`, `"k":3`, `"auto_k":true,"max_k":8`} {
				body := fmt.Sprintf(`{"dict":%q,"method":%q,%s,"behavior":[%s]}`,
					id, name, mode, strings.Join(rows, ","))
				status, resp := postDiagnose(t, ts.URL, []byte(body))
				fmt.Fprintf(h, "%s %q %s -> %d %s\n", id, name, mode, status, resp)
				n++
			}
		}
	}
	if n != 78 {
		t.Fatalf("sent %d requests, want 78", n)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDiagnoseSHA256 {
		t.Fatalf("diagnose responses SHA-256 = %s, want %s", got, goldenDiagnoseSHA256)
	}
}
