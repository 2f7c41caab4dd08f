package autoscale

import (
	"github.com/qamarket/qamarket/internal/cluster"
)

// ClientSource polls a federation through a cluster client's dynamic
// membership view: one stats RPC per live member, telemetry lifted off
// its market field. Members that are unreachable or mid-drain past
// their stats window are simply skipped — the controller is built to
// tolerate any answering subset.
type ClientSource struct {
	Client *cluster.Client
}

// Sample implements Source.
func (s ClientSource) Sample() []Sample {
	var out []Sample
	for _, m := range s.Client.Members() {
		switch m.State {
		case "alive", "suspect", "seed":
		default:
			continue // left/dead members own no supply to count
		}
		st, err := s.Client.Stats(m.ID)
		if err != nil {
			continue
		}
		out = append(out, Sample{ID: m.ID, Telemetry: st.Market})
	}
	return out
}
