package experiments

import (
	"fmt"

	"lunasolar/internal/chunkserver"
	"lunasolar/internal/crc"
	"lunasolar/internal/dpu"
	"lunasolar/internal/sim"
)

// Table3 regenerates the FPGA resource-consumption table from the DPU
// model's capacity configuration.
func Table3(opts Options) *Table {
	eng := sim.NewEngine(opts.Seed)
	card := dpu.New(eng, dpu.DefaultConfig())
	t := &Table{
		Title:   "Table 3: SOLAR's hardware resource consumption",
		Columns: []string{"module", "LUT (%)", "BRAM (%)"},
	}
	for _, m := range card.Resources() {
		t.Rows = append(t.Rows, []string{m.Name, f1(m.LUTPercent()), f1(m.BRAMPercent())})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("derived from capacities: %d Addr entries, %d segments, %d vdisks on a %d-LUT / %d-BRAM36 device",
			card.Cfg.MaxAddrEntries, dpu.MaxSegments, dpu.MaxVDisks,
			dpu.DeviceLUTs, dpu.DeviceBRAMBlocks),
		"paper: Addr 5.1/8.1, Block 0.2/8.6, QoS 0.1/0.4, SEC 2.8/0.9, CRC 0.3/0.0, total 8.5/18.2")
	return t
}

// Corruption root-cause classes of Fig. 11.
const (
	causeFPGA = iota
	causeSoftware
	causeConfig
	causeMCE
	numCauses
)

var causeNames = [numCauses]string{"FPGA flapping", "Software bug", "Config error", "MCE error"}

// Fleet propensities: how often each root cause produces a corruption
// event in production (the paper's Fig. 11 distribution).
var causeWeights = [numCauses]float64{0.37, 0.28, 0.22, 0.13}

// Fig11 runs the corruption campaign: for each event a root cause is drawn
// with the fleet propensities, a real corruption of that class is injected
// into a write path, and the software CRC machinery must catch it — the
// FPGA classes through Solar's aggregation check, the software/config/MCE
// classes through the chunk-server CRC verification and metadata scrub.
func Fig11(opts Options) *Table {
	events := opts.scale(100, 30)
	eng := sim.NewEngine(opts.Seed)
	r := eng.Rand.Fork()

	// Two fault-injectable FPGAs: one whose CRC engine lies, one whose
	// datapath corrupts blocks (the two flavours of §4.4's bit flipping).
	cfgCRC := dpu.DefaultConfig()
	cfgCRC.Faults = dpu.FaultRates{CRCBitFlip: 1.0}
	cardCRC := dpu.New(eng, cfgCRC)
	cfgData := dpu.DefaultConfig()
	cfgData.Faults = dpu.FaultRates{DataBitFlip: 1.0}
	cardData := dpu.New(eng, cfgData)
	fpgaTurn := 0

	cs := chunkserver.New(eng, "campaign-chunk", chunkserver.DefaultSSD())

	injected := make([]int, numCauses)
	detected := make([]int, numCauses)

	block := make([]byte, 4096)
	for ev := 0; ev < events; ev++ {
		r.Read(block)
		cause := pickCause(r)
		injected[cause]++
		trusted := crc.Raw(block)

		switch cause {
		case causeFPGA:
			// The FPGA engine corrupts the block or its CRC; Solar's CPU
			// aggregation compares the trusted value against what the
			// engine reported.
			card := cardCRC
			if fpgaTurn%2 == 1 {
				card = cardData
			}
			fpgaTurn++
			reported, corrupted := card.ComputeCRC(block, 0, false, copyBlock)
			var agg crc.Aggregator
			agg.AddExpected(trusted)
			agg.AddBlockCRC(reported)
			// The datapath may also have corrupted the payload without
			// the reported CRC matching the trusted one — both cases are
			// a Verify failure.
			if !agg.Verify() || (corrupted != nil && crc.Raw(corrupted) != trusted) {
				detected[cause]++
			}
		case causeSoftware:
			// A software bug corrupts the payload after its CRC was
			// computed; the chunk server re-checksums on arrival.
			buggy := append([]byte(nil), block...)
			buggy[r.Intn(len(buggy))] ^= 0xff
			errCh := make(chan error, 1)
			cs.WriteBlock(7, uint64(ev)<<12, 1, buggy, trusted, func(err error) { errCh <- err })
			eng.Run()
			if err := <-errCh; err != nil {
				detected[cause]++
			}
		case causeConfig:
			// A corrupted table entry misdirects the block to a wrong
			// address; the periodic scrub compares stored CRCs against
			// metadata per address and sees the mismatch.
			meta := map[uint64]uint32{uint64(ev) << 12: trusted}
			wrongLBA := uint64(ev)<<12 + 4096
			errCh := make(chan error, 1)
			cs.WriteBlock(8, wrongLBA, 1, block, trusted, func(err error) { errCh <- err })
			eng.Run()
			<-errCh
			// Scrub: the intended address has no (or stale) data matching
			// its metadata CRC.
			found := false
			cs.ReadBlock(8, uint64(ev)<<12, func(data []byte, rawCRC uint32, err error) {
				if rawCRC == meta[uint64(ev)<<12] {
					found = true
				}
			})
			eng.Run()
			if !found {
				detected[cause]++
			}
		case causeMCE:
			// A host-memory bit flip corrupts the buffer after the
			// trusted checksum was recorded; the end-to-end CRC check at
			// the chunk server catches it.
			flipped := append([]byte(nil), block...)
			flipped[r.Intn(len(flipped))] ^= 1 << uint(r.Intn(8))
			errCh := make(chan error, 1)
			cs.WriteBlock(9, uint64(ev)<<12, 1, flipped, trusted, func(err error) { errCh <- err })
			eng.Run()
			if err := <-errCh; err != nil {
				detected[cause]++
			}
		}
	}

	t := &Table{
		Title:   "Figure 11: root causes of data-corruption events mitigated by software CRC",
		Columns: []string{"root cause", "events", "share %", "detected", "paper share %"},
	}
	paper := []string{"37", "28", "22", "13"}
	total := 0
	caught := 0
	for c := 0; c < numCauses; c++ {
		total += injected[c]
		caught += detected[c]
		t.Rows = append(t.Rows, []string{
			causeNames[c],
			fmt.Sprintf("%d", injected[c]),
			f1(100 * float64(injected[c]) / float64(events)),
			fmt.Sprintf("%d", detected[c]),
			paper[c],
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/%d injected corruptions detected by software CRC machinery", caught, total))
	return t
}

func pickCause(r *sim.Rand) int {
	u := r.Float64()
	cum := 0.0
	for c := 0; c < numCauses; c++ {
		cum += causeWeights[c]
		if u <= cum {
			return c
		}
	}
	return numCauses - 1
}

// copyBlock is Fig 11's scratch for the FPGA CRC engine: a datapath fault
// lands in a fresh copy, so the campaign's block stays clean.
func copyBlock(b []byte) []byte { return append([]byte(nil), b...) }
