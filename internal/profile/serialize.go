package profile

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
)

// Serialization lets a profiling run be saved and fed to later
// optimizer invocations — the usual profile-guided-optimization
// workflow (the paper's instrumented run and recompilation are separate
// steps). The format is JSON with packed, base64-encoded outcome
// vectors, stable across versions of this repository.

// profileJSON is the on-disk shape.
type profileJSON struct {
	Version   int                 `json:"version"`
	DynInstrs int64               `json:"dyn_instrs"`
	Annulled  int64               `json:"annulled"`
	Sites     map[string]siteJSON `json:"sites"`
}

type siteJSON struct {
	Count int    `json:"count"`
	Bits  string `json:"bits"` // base64 of little-endian packed outcome words
}

const serialVersion = 1

// Save writes the profile to w.
func (p *Profile) Save(w io.Writer) error {
	out := profileJSON{
		Version:   serialVersion,
		DynInstrs: p.DynInstrs,
		Annulled:  p.Annulled,
		Sites:     make(map[string]siteJSON, len(p.sites)),
	}
	for id, bp := range p.sites {
		out.Sites[id] = siteJSON{
			Count: bp.Outcomes.Len(),
			Bits:  base64.StdEncoding.EncodeToString(packWords(bp.Outcomes.words)),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a profile written by Save.
func Load(r io.Reader) (*Profile, error) {
	var in profileJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if in.Version != serialVersion {
		return nil, fmt.Errorf("profile: unsupported version %d", in.Version)
	}
	p := NewProfile()
	p.DynInstrs = in.DynInstrs
	p.Annulled = in.Annulled
	for id, s := range in.Sites {
		if s.Count < 0 {
			return nil, fmt.Errorf("profile: site %q has negative count", id)
		}
		raw, err := base64.StdEncoding.DecodeString(s.Bits)
		if err != nil {
			return nil, fmt.Errorf("profile: site %q: %w", id, err)
		}
		if len(raw)%8 != 0 {
			return nil, fmt.Errorf("profile: site %q: ragged %d-byte payload", id, len(raw))
		}
		words := unpackWords(raw)
		need := (s.Count + 63) / 64
		if len(words) < need {
			return nil, fmt.Errorf("profile: site %q: %d words for %d outcomes", id, len(words), s.Count)
		}
		if len(words) > need {
			return nil, fmt.Errorf("profile: site %q: %d surplus payload words", id, len(words)-need)
		}
		// Mask any set bits beyond Count in the final word: Append only
		// ORs into the current word, so a stray bit here would resurface
		// as a phantom taken outcome the next time the vector grows.
		if rem := uint(s.Count % 64); rem != 0 {
			words[need-1] &= (1 << rem) - 1
		}
		p.sites[id] = &BranchProfile{
			Site:     id,
			Outcomes: fromWords(words, s.Count),
		}
	}
	return p, nil
}

func packWords(words []uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(w >> (8 * b))
		}
	}
	return out
}

func unpackWords(raw []byte) []uint64 {
	n := (len(raw) + 7) / 8
	out := make([]uint64, n)
	for i, b := range raw {
		out[i/8] |= uint64(b) << (8 * uint(i%8))
	}
	return out
}
