package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"osap/internal/chaos"
)

func TestSaveLoadArtifactsRoundTrip(t *testing.T) {
	l := quickLab(t)
	a, err := l.Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := SaveArtifacts(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "gamma22.json" {
		t.Errorf("artifact path = %s", path)
	}
	back, err := LoadArtifacts(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dataset != a.Dataset || back.AlphaPi != a.AlphaPi || back.AlphaV != a.AlphaV {
		t.Error("metadata changed in round trip")
	}
	if len(back.Agents) != len(a.Agents) || len(back.ValueNets) != len(a.ValueNets) {
		t.Fatal("ensemble sizes changed in round trip")
	}
	// Behavioral equality: same probs and values on a probe obs.
	obs := make([]float64, a.Agents[0].Cfg.ObsDim())
	obs[0] = 0.5
	for i := range a.Agents {
		pa, pb := a.Agents[i].Probs(obs), back.Agents[i].Probs(obs)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatal("agent probs changed in round trip")
			}
		}
	}
	for i := range a.ValueNets {
		if a.ValueNets[i].Forward(obs)[0] != back.ValueNets[i].Forward(obs)[0] {
			t.Fatal("value net output changed in round trip")
		}
	}
	if a.OCSVM.Rho != back.OCSVM.Rho || a.OCSVM.NumSVs() != back.OCSVM.NumSVs() {
		t.Fatal("OC-SVM changed in round trip")
	}
}

func TestLoadArtifactsErrors(t *testing.T) {
	if _, err := LoadArtifacts("/nonexistent/x.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifacts(bad); err == nil {
		t.Error("corrupt file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifacts(empty); err == nil {
		t.Error("incomplete artifacts accepted")
	}
}

// saveQuickArtifacts writes one quick-scale artifact file for the
// integrity tests.
func saveQuickArtifacts(t *testing.T) string {
	t.Helper()
	l := quickLab(t)
	a, err := l.Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	path, err := SaveArtifacts(t.TempDir(), a)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadArtifactsDetectsBitFlip(t *testing.T) {
	path := saveQuickArtifacts(t)
	// A bit flip anywhere must fail the load — either as a checksum
	// mismatch or, if it breaks JSON syntax, as a decode error. Several
	// seeds spread the flips across the file.
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := chaos.CorruptFile(path, seed); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArtifacts(path); err == nil {
			t.Fatalf("seed %d: corrupted artifacts loaded without error", seed)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Restored file loads again.
	if _, err := LoadArtifacts(path); err != nil {
		t.Fatalf("restored artifacts failed to load: %v", err)
	}
}

func TestLoadArtifactsChecksumMismatchIsDescriptive(t *testing.T) {
	path := saveQuickArtifacts(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Format    string          `json:"format"`
		SHA256    string          `json:"sha256"`
		Artifacts json.RawMessage `json:"artifacts"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Format != "osap-artifacts/v2" || env.SHA256 == "" {
		t.Fatalf("saved envelope malformed: format %q sha %q", env.Format, env.SHA256)
	}
	// Tamper inside the payload while keeping it valid JSON: swap one
	// digit of a numeric weight, or slip a weight in that is no number.
	i := bytes.IndexByte(env.Artifacts, '7')
	if i < 0 {
		t.Fatal("no digit to tamper with")
	}
	digit := bytes.Clone(env.Artifacts)
	digit[i] = '8'
	for name, payload := range map[string][]byte{
		"digit":        digit,
		"not a number": bytes.Replace(env.Artifacts, []byte(`"weight":[`), []byte(`"weight":[true,`), 1),
	} {
		env.Artifacts = payload
		tampered, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadArtifacts(path)
		if err == nil {
			t.Fatalf("%s: tampered payload loaded without error", name)
		}
		if !strings.Contains(err.Error(), "corrupted") || !strings.Contains(err.Error(), "sha256") {
			t.Fatalf("%s: tamper error not descriptive: %v", name, err)
		}
	}
}

func TestLoadArtifactsTruncated(t *testing.T) {
	path := saveQuickArtifacts(t)
	if err := chaos.TruncateFile(path, 0.75); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifacts(path); err == nil {
		t.Fatal("truncated artifacts loaded without error")
	}
}

func TestLoadArtifactsLegacyNoChecksum(t *testing.T) {
	path := saveQuickArtifacts(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Artifacts json.RawMessage `json:"artifacts"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	// A pre-envelope file is the bare payload: it must load (with a
	// warning), not fail — refusing it would strand trained models.
	if err := os.WriteFile(path, env.Artifacts, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := LoadArtifacts(path)
	if err != nil {
		t.Fatalf("legacy artifacts rejected: %v", err)
	}
	if a.Dataset != "gamma22" || len(a.Agents) == 0 {
		t.Fatal("legacy artifacts loaded incompletely")
	}
}

// TestSaveArtifactsPinnedBytes pins the artifact file byte for byte:
// training runs on the packed kernels and the codec is one pass, and
// neither may move a bit of what a quick-scale run writes. The digest
// was recorded before either existed. Bits are per platform (DESIGN
// §10), so it is checked where it was recorded: amd64.
func TestSaveArtifactsPinnedBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("artifact bits are pinned on amd64")
	}
	path := saveQuickArtifacts(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4e4abc571012c4f317e1b82bf05258f1c50b525e4e7431da1b3ae6de1a795646"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("quick gamma22 artifacts sha256 %x, want %s", sum, want)
	}
}

// TestSaveArtifactsAtomic: a save that cannot write leaves the previous
// file whole and nothing beside it.
func TestSaveArtifactsAtomic(t *testing.T) {
	path := saveQuickArtifacts(t)
	dir := filepath.Dir(path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The temporary file SaveArtifacts writes first, made a directory so
	// that writing it fails.
	blocker := filepath.Join(dir, ".gamma22.json.tmp")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	a, err := quickLab(t).Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveArtifacts(dir, a); err == nil {
		t.Fatal("save over a blocked temporary file succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("failed save disturbed the previous file (err %v)", err)
	}
	if _, err := LoadArtifacts(path); err != nil {
		t.Fatalf("previous file no longer loads: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "gamma22.json" && e.Name() != ".gamma22.json.tmp" {
			t.Errorf("failed save left %s behind", e.Name())
		}
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveArtifacts(dir, a); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("save left %d files, want 1", len(entries))
	}
}

// badLayerPayloads are artifact payloads whose checksums hold and whose
// JSON parses, but whose actor has a layer no network can have.
var badLayerPayloads = map[string]string{
	"zero dim":         `{"kind":"dense","in":0,"out":3}`,
	"kernel > length":  `{"kind":"conv1d","channels":1,"length":2,"filters":1,"kernel":3}`,
	"product overflow": `{"kind":"dense","in":4000000000,"out":4000000000}`,
}

// payloadWithActorLayer is a minimal payload whose one agent's actor is
// the given layer.
func payloadWithActorLayer(layer string) []byte {
	return []byte(`{"dataset":"gamma22","agents":[{"cfg":{"ObsChannels":1,"HistoryLen":1,"ConvFilters":1,"ConvKernel":1,"Hidden":1,"Actions":1},` +
		`"actor":{"layers":[` + layer + `]},` +
		`"critic":{"layers":[{"kind":"dense","in":1,"out":1,"weight":[0.5],"bias":[0]}]}}],` +
		`"value_nets":[],"ocsvm":{"svs":[[1]],"alpha":[1],"rho":0,"gamma":1,"dim":1},` +
		`"nd_val_qoe":0,"alpha_pi":0,"alpha_v":0}`)
}

// TestLoadArtifactsBadLayerDims: a checksum-valid file with impossible
// layer dimensions is an error, not a panic.
func TestLoadArtifactsBadLayerDims(t *testing.T) {
	dir := t.TempDir()
	for name, layer := range badLayerPayloads {
		payload := payloadWithActorLayer(layer)
		sum := sha256.Sum256(payload)
		file := `{"format":"osap-artifacts/v2","sha256":"` + hex.EncodeToString(sum[:]) + `","artifacts":` + string(payload) + `}`
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArtifacts(path); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	// The template itself, with a real layer, loads.
	if _, err := decodeArtifacts(payloadWithActorLayer(`{"kind":"dense","in":1,"out":1,"weight":[2],"bias":[0]}`)); err != nil {
		t.Fatalf("template payload rejected: %v", err)
	}
}

// FuzzArtifactPayload: the payload decoder never panics, and whatever
// it accepts re-encodes to bytes that decode and re-encode to
// themselves.
func FuzzArtifactPayload(f *testing.F) {
	a, err := quickLab(f).Artifacts("gamma22")
	if err != nil {
		f.Fatal(err)
	}
	quick, err := encodeArtifacts(a)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quick)
	for _, layer := range badLayerPayloads {
		f.Add(payloadWithActorLayer(layer))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := decodeArtifacts(payload)
		if err != nil {
			return
		}
		once, err := encodeArtifacts(a)
		if err != nil {
			t.Fatalf("decoded artifacts do not encode: %v", err)
		}
		back, err := decodeArtifacts(once)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		twice, err := encodeArtifacts(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}

func TestInstallArtifactsBypassesTraining(t *testing.T) {
	l := quickLab(t)
	a, err := l.Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewLab(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.InstallArtifacts(a); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Error("installed artifacts not returned")
	}
	// Unknown dataset rejected.
	bogus := *a
	bogus.Dataset = "nope"
	if err := fresh.InstallArtifacts(&bogus); err == nil {
		t.Error("unknown dataset installed")
	}
}

// TestFullGridQuick is the package's big integration test: it runs every
// figure at quick scale and sanity-checks structural invariants (not the
// paper's quantitative shape, which needs paper-scale training).
func TestFullGridQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	l := quickLab(t)

	f1, err := l.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != 6 {
		t.Fatalf("figure 1 rows = %d", len(f1.Rows))
	}

	f3, err := l.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range f3.Order {
		for _, te := range f3.Order {
			if _, ok := f3.Score[tr][te]; !ok {
				t.Fatalf("figure 3 missing %s→%s", tr, te)
			}
		}
	}

	f4, err := l.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ood4Schemes() {
		st := f4.Stats[s]
		if st.N != 30 {
			t.Fatalf("figure 4 %s over %d pairs, want 30", s, st.N)
		}
		if st.Min > st.Median || st.Median > st.Max {
			t.Fatalf("figure 4 %s stats unordered: %+v", s, st)
		}
	}

	f5, err := l.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ood4Schemes() {
		cdf := f5.CDFs[s]
		if cdf.N() != 30 {
			t.Fatalf("figure 5 %s has %d samples", s, cdf.N())
		}
		if cdf.At(-1e9) != 0 || cdf.At(1e9) != 1 {
			t.Fatalf("figure 5 %s CDF not normalized", s)
		}
	}

	// Renderers produce non-empty output for everything.
	for _, out := range []string{f1.Render(), f3.Render(), f4.Render(), f5.Render()} {
		if len(out) < 50 {
			t.Fatal("renderer output too short")
		}
	}
}
