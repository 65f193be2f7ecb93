package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"osap/internal/nn"
	"osap/internal/ocsvm"
	"osap/internal/rl"
)

// artifactsJSON is the on-disk form of a training run's outputs: plain
// values all the way down, so encoding/json writes and reads it in one
// reflection pass, with no nested MarshalJSON or RawMessage re-scanning
// the layers below.
type artifactsJSON struct {
	Dataset   string           `json:"dataset"`
	Agents    []rl.AgentJSON   `json:"agents"`
	ValueNets []nn.NetworkJSON `json:"value_nets"`
	OCSVM     *ocsvm.Model     `json:"ocsvm"`
	NDValQoE  float64          `json:"nd_val_qoe"`
	AlphaPi   float64          `json:"alpha_pi"`
	AlphaV    float64          `json:"alpha_v"`
	// Record is absent only from a v2 (or older) payload.
	Record *Record `json:"record,omitempty"`
}

// artifactsFormat names the checksummed envelope; bump on layout
// changes. v3 added the record; a v2 file loads under AssumedRecord.
const artifactsFormat, artifactsFormatV2 = "osap-artifacts/v3", "osap-artifacts/v2"

// artifactsEnvelope wraps the artifact payload with an integrity
// checksum. Artifacts is kept as raw bytes so the SHA-256 is computed
// and verified over the exact serialized payload — a single flipped
// bit anywhere in the weights fails the load instead of silently
// skewing every downstream decision. SaveArtifacts writes the same
// bytes json.Marshal would, without re-scanning the payload.
type artifactsEnvelope struct {
	Format    string          `json:"format"`
	SHA256    string          `json:"sha256"`
	Artifacts json.RawMessage `json:"artifacts"`
}

// encodeArtifacts serializes the artifact payload.
func encodeArtifacts(a *Artifacts) ([]byte, error) {
	aj := artifactsJSON{
		Dataset:   a.Dataset,
		Agents:    make([]rl.AgentJSON, len(a.Agents)),
		ValueNets: make([]nn.NetworkJSON, len(a.ValueNets)),
		OCSVM:     a.OCSVM,
		NDValQoE:  a.NDValQoE,
		AlphaPi:   a.AlphaPi,
		AlphaV:    a.AlphaV,
		Record:    &a.Record,
	}
	var err error
	for i, ag := range a.Agents {
		if aj.Agents[i], err = ag.JSON(); err != nil {
			return nil, fmt.Errorf("experiments: marshal agent %d: %w", i, err)
		}
	}
	for i, v := range a.ValueNets {
		if aj.ValueNets[i], err = v.JSON(); err != nil {
			return nil, fmt.Errorf("experiments: marshal value net %d: %w", i, err)
		}
	}
	payload, err := json.Marshal(aj)
	if err != nil {
		return nil, fmt.Errorf("experiments: marshal artifacts: %w", err)
	}
	return payload, nil
}

// decodeArtifacts parses an artifact payload. Every network's shape and
// the record are checked, so a payload that parses but describes an
// impossible layer or record is an error, not a panic.
func decodeArtifacts(payload []byte) (*Artifacts, error) {
	var aj artifactsJSON
	if err := json.Unmarshal(payload, &aj); err != nil {
		return nil, err
	}
	return aj.build()
}

// build makes the artifacts aj describes.
func (aj *artifactsJSON) build() (*Artifacts, error) {
	if len(aj.Agents) == 0 || aj.OCSVM == nil {
		return nil, fmt.Errorf("incomplete")
	}
	a := &Artifacts{
		Agents:    make([]*rl.ActorCritic, len(aj.Agents)),
		ValueNets: make([]*nn.Network, len(aj.ValueNets)),
		Calibration: Calibration{
			Dataset:  aj.Dataset,
			OCSVM:    aj.OCSVM,
			NDValQoE: aj.NDValQoE,
			AlphaPi:  aj.AlphaPi,
			AlphaV:   aj.AlphaV,
		},
	}
	var err error
	for i, agj := range aj.Agents {
		if a.Agents[i], err = agj.Agent(); err != nil {
			return nil, fmt.Errorf("agent %d: %w", i, err)
		}
	}
	for i, nj := range aj.ValueNets {
		if a.ValueNets[i], err = nj.Network(); err != nil {
			return nil, fmt.Errorf("value net %d: %w", i, err)
		}
	}
	a.Record = AssumedRecord(a)
	if aj.Record != nil {
		a.Record = *aj.Record
	}
	if err := a.Record.check(a); err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	return a, nil
}

// SaveArtifacts writes trained artifacts to <dir>/<dataset>.json. It
// writes a temporary file beside it, syncs it and renames it into
// place, so a crash mid-write leaves the previous file whole.
func SaveArtifacts(dir string, a *Artifacts) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("experiments: save artifacts: %w", err)
	}
	payload, err := encodeArtifacts(a)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	data := make([]byte, 0, len(payload)+128)
	data = append(data, `{"format":"`+artifactsFormat+`","sha256":"`...)
	data = hex.AppendEncode(data, sum[:])
	data = append(data, `","artifacts":`...)
	data = append(append(data, payload...), '}')

	path := filepath.Join(dir, a.Dataset+".json")
	tmp := filepath.Join(dir, "."+a.Dataset+".json.tmp")
	if err := WriteSynced(tmp, data); err != nil {
		return "", fmt.Errorf("experiments: write artifacts: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return "", fmt.Errorf("experiments: write artifacts: %w", err)
	}
	return path, nil
}

// WriteSynced writes data to a new file at path and syncs it to disk,
// removing the file if any step fails. The artifact file and the
// registry's MANIFEST are both written through it.
func WriteSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path) //nolint:errcheck // best-effort cleanup
	}
	return err
}

// LoadArtifacts reads artifacts saved by SaveArtifacts, verifying the
// envelope checksum: a corrupted or truncated file fails fast here,
// before any bad weight can reach a serving guard. Legacy files (bare
// payload, no envelope) and v2 files load under AssumedRecord with a
// warning on stderr — refusing them would strand every trained model.
func LoadArtifacts(path string) (*Artifacts, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: load artifacts: %w", err)
	}
	var aj artifactsJSON
	env, payloadErr, err := readEnvelope(data, &aj)
	if err != nil {
		return nil, fmt.Errorf("experiments: decode artifacts %s (truncated or not JSON): %w", path, err)
	}
	if env.Artifacts == nil {
		fmt.Fprintf(os.Stderr, "experiments: artifacts %s predate checksumming; integrity not verified\n", path)
		a, err := decodeArtifacts(data)
		if err != nil {
			return nil, fmt.Errorf("experiments: decode artifacts %s: %w", path, err)
		}
		return a, nil
	}
	if env.Format != artifactsFormat && env.Format != artifactsFormatV2 {
		return nil, fmt.Errorf("experiments: artifacts %s: unknown format %q, want %q",
			path, env.Format, artifactsFormat)
	}
	sum := sha256.Sum256(env.Artifacts)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return nil, fmt.Errorf("experiments: artifacts %s corrupted: payload sha256 %s does not match recorded %s",
			path, got, env.SHA256)
	}
	if payloadErr != nil {
		return nil, fmt.Errorf("experiments: decode artifacts %s: %w", path, payloadErr)
	}
	if (aj.Record == nil) != (env.Format == artifactsFormatV2) {
		return nil, fmt.Errorf("experiments: artifacts %s: format %s does not match the payload (record present: %t)",
			path, env.Format, aj.Record != nil)
	}
	if aj.Record == nil {
		fmt.Fprintf(os.Stderr, "experiments: artifacts %s predate the guard record (%s); loading them under an assumed one\n", path, env.Format)
	}
	a, err := aj.build()
	if err != nil {
		return nil, fmt.Errorf("experiments: decode artifacts %s: %w", path, err)
	}
	return a, nil
}

// readEnvelope walks the envelope's keys, decoding the payload into aj
// as it passes — the file is scanned once for its extent and once to
// decode, not once more to validate and again to copy the payload out.
// The returned envelope's Artifacts are the payload's bytes as they lie
// in data, for the checksum; nil when data has no "artifacts" key,
// which is a legacy bare payload. A payload that is well-formed JSON
// but does not decode (a weight that is not a number) comes back as
// payloadErr, so the caller reports a checksum mismatch first, as it
// would for any other corruption.
func readEnvelope(data []byte, aj *artifactsJSON) (env artifactsEnvelope, payloadErr, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return env, nil, fmt.Errorf("not a JSON object")
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return env, nil, err
		}
		switch tok {
		case "format":
			err = dec.Decode(&env.Format)
		case "sha256":
			err = dec.Decode(&env.SHA256)
		case "artifacts":
			start := dec.InputOffset()
			*aj = artifactsJSON{} // a repeated key replaces the payload, as in encoding/json
			if payloadErr = dec.Decode(aj); payloadErr != nil {
				// Only a value the decoder could not read to its end
				// leaves the stream unusable.
				var syntax *json.SyntaxError
				if errors.As(payloadErr, &syntax) || errors.Is(payloadErr, io.ErrUnexpectedEOF) {
					return env, nil, payloadErr
				}
			}
			// What lies between the key and the decoder's position is
			// the colon, white space and the payload.
			env.Artifacts = bytes.TrimLeft(data[start:dec.InputOffset()], ": \t\r\n")
		default:
			err = dec.Decode(new(json.RawMessage))
		}
		if err != nil {
			return env, nil, err
		}
	}
	if _, err := dec.Token(); err != nil {
		return env, nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return env, nil, fmt.Errorf("data after the envelope")
	}
	return env, payloadErr, nil
}

// InstallArtifacts places pre-trained artifacts into the lab cache (e.g.
// loaded from disk by cmd/osap-eval), bypassing training.
func (l *Lab) InstallArtifacts(a *Artifacts) error {
	if _, err := l.Dataset(a.Dataset); err != nil {
		return err
	}
	frozen, err := rl.Freeze(a.Agents, a.ValueNets)
	if err != nil {
		return err
	}
	e := &artifactEntry{a: a, frozen: frozen}
	e.once.Do(func() {}) // mark completed so callers never train
	l.mu.Lock()
	defer l.mu.Unlock()
	l.artifacts[a.Dataset] = e
	return nil
}
