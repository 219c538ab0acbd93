package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// Snapshot transfer: the warm-dictionary hand-off between replicas.
// A dictionary's on-disk form is already its canonical snapshot — the
// exact bytes SaveFileAtomic wrote — so transfer is "ship the file",
// not "re-serialize the cache": GET streams the raw .dict bytes with
// a SHA-256 trailer-free integrity header, PUT verifies the digest,
// strictly re-decodes the bytes (a snapshot that does not decode is
// rejected before it can touch disk), and installs them with
// core.WriteFileAtomic so a crash mid-transfer leaves the previous
// file intact. The router uses this to warm the new owner after a
// topology change (see ring.go's bounded-movement property).

// shaHeader carries the hex SHA-256 of the snapshot body. GET always
// sets it; PUT requires it — a transfer without an integrity check is
// a corruption vector, not an optimization.
const shaHeader = "X-Ddd-Sha256"

// maxSnapshotBytes bounds a received snapshot body (a .dict for the
// profiles this repo builds is well under this).
const maxSnapshotBytes = 1 << 30

// handleSnapshotGet implements GET /v1/dicts/{id}/snapshot: the raw
// dictionary file bytes plus their SHA-256.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, id+".dict"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("dictionary %q not found", id))
			return
		}
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("dictionary %q: read failed", id))
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(shaHeader, hex.EncodeToString(sum[:]))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleSnapshotPut implements PUT /v1/dicts/{id}/snapshot: verify
// the declared SHA-256, strictly decode, and atomically install the
// bytes as <dir>/<id>.dict. The cache entry for id (if any) is
// invalidated so the next request loads the new file.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	declared := r.Header.Get(shaHeader)
	if declared == "" {
		writeError(w, http.StatusBadRequest, shaHeader+" header required")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading snapshot body: "+err.Error())
		return
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if got != declared {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("snapshot integrity failure: body sha256 %s, declared %s", got, declared))
		return
	}
	// The digest only proves the bytes arrived intact; the strict
	// decoder proves they are a dictionary this server could load. A
	// snapshot failing either check never reaches disk.
	if _, _, err := core.LoadCompressed(bytes.NewReader(data)); err != nil {
		writeError(w, http.StatusBadRequest, "snapshot does not decode: "+err.Error())
		return
	}
	if err := core.WriteFileAtomic(filepath.Join(s.cfg.Dir, id+".dict"), data); err != nil {
		writeError(w, http.StatusInternalServerError, "installing snapshot: "+err.Error())
		return
	}
	s.cache.Invalidate(id)
	writeJSON(w, http.StatusOK, struct {
		ID     string `json:"id"`
		Bytes  int    `json:"bytes"`
		Sha256 string `json:"sha256"`
	}{id, len(data), got})
}

// TransferSnapshot copies dictionary id from the replica at fromURL
// to the replica at toURL, verifying the SHA-256 end to end: the
// source's declared digest is checked against the received bytes
// before they are re-declared to the destination, whose PUT handler
// re-verifies and strictly decodes. Returns the byte count and hex
// digest of the transferred snapshot.
func TransferSnapshot(ctx context.Context, client *http.Client, fromURL, toURL, id string) (int, string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if !validID(id) {
		return 0, "", fmt.Errorf("service: invalid dictionary id %q", id)
	}
	get, err := fetch(ctx, client, http.MethodGet, fromURL+"/v1/dicts/"+id+"/snapshot", nil, nil, maxSnapshotBytes)
	if err != nil {
		return 0, "", fmt.Errorf("service: snapshot get %s: %w", fromURL, err)
	}
	if get.status != http.StatusOK {
		return 0, "", fmt.Errorf("service: snapshot get %s: status %d: %s", fromURL, get.status, bytes.TrimSpace(get.body))
	}
	data := get.body
	declared := get.header.Get(shaHeader)
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])
	if declared == "" || digest != declared {
		return 0, "", fmt.Errorf("service: snapshot %q from %s corrupted in flight: sha256 %s, declared %q", id, fromURL, digest, declared)
	}

	hdr := http.Header{"Content-Type": {"application/octet-stream"}, shaHeader: {digest}}
	put, err := fetch(ctx, client, http.MethodPut, toURL+"/v1/dicts/"+id+"/snapshot", hdr, data, 1<<20)
	if err != nil {
		return 0, "", fmt.Errorf("service: snapshot put %s: %w", toURL, err)
	}
	if put.status != http.StatusOK {
		return 0, "", fmt.Errorf("service: snapshot put %s: status %d: %s", toURL, put.status, bytes.TrimSpace(put.body))
	}
	return len(data), digest, nil
}
