package abr

// rebufPenalty is μ, the QoE cost of one second of rebuffering:
// Pensieve's linear QoE uses 4.3, the top ladder bitrate in Mbps.
const rebufPenalty = 4.3

// ChunkQoE returns one chunk's contribution to the conventional linear
// QoE metric (§3.1),
//
//	QoE = Σ R_n − μ Σ T_n − Σ |R_{n+1} − R_n|
//
// with bitrates R in Mbps, rebuffering time T in seconds, μ =
// rebufPenalty and the bitrate-switching (jitter) term weighted 1: the
// chunk is downloaded at bitrateMbps after prevMbps (pass prevMbps < 0
// for the first chunk, which carries no switching penalty), incurring
// rebufSec of rebuffering.
func ChunkQoE(bitrateMbps, prevMbps, rebufSec float64) float64 {
	q := bitrateMbps - rebufPenalty*rebufSec
	if prevMbps >= 0 {
		d := bitrateMbps - prevMbps
		if d < 0 {
			d = -d
		}
		q -= d
	}
	return q
}
