package experiments

import "encoding/json"

// The functions below are called by no shipping code; only this
// package's unit tests use them, so they live in a test file and the
// package's non-test code keeps no function without a caller.

// decodeArtifacts parses an artifact payload, as LoadArtifacts does
// once the envelope's checksum holds.
func decodeArtifacts(payload []byte) (*Artifacts, error) {
	var aj artifactsJSON
	if err := json.Unmarshal(payload, &aj); err != nil {
		return nil, err
	}
	return aj.build()
}
