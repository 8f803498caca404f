package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"photon"
	"photon/internal/tpch"
	"photon/internal/types"
)

// oracleSF is the scale factor the committed digests were computed at.
const oracleSF = 0.1

// oracleFile holds the TPC-H result digests computed on the row engine.
const oracleFile = "oracle_sf0.1.json"

//go:embed oracle_sf0.1.json
var oracleJSON []byte

// oracle is the digest file's schema.
type oracle struct {
	SF     float64           `json:"sf"`
	Engine string            `json:"engine"`
	Rows   map[string]int    `json:"rows"`
	Digest map[string]string `json:"digest"`
}

// loadOracle parses the committed digests.
func loadOracle() (map[int]string, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("parse %s: %w", oracleFile, err)
	}
	if o.SF != oracleSF || len(o.Digest) != 22 {
		return nil, fmt.Errorf("%s: want 22 digests at SF %g, have %d at SF %g", oracleFile, oracleSF, len(o.Digest), o.SF)
	}
	out := map[int]string{}
	for k, v := range o.Digest {
		q, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("%s: bad query number %q", oracleFile, k)
		}
		out[q] = v
	}
	return out, nil
}

// ordered reports whether a query fixes its output order.
func ordered(q int) bool { return strings.Contains(strings.ToUpper(tpch.Queries[q]), "ORDER BY") }

// canonical renders a result as text: one line per row, values separated
// by '|', decimals and dates in their SQL spelling, floats rounded to six
// significant digits, and rows sorted unless the query has an ORDER BY.
func canonical(res *photon.Result, sorted bool) []string {
	lines := make([]string, len(res.Rows))
	var sb strings.Builder
	for i, row := range res.Rows {
		sb.Reset()
		for c, v := range row {
			if c > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(formatValue(v, res.Schema.Field(c).Type))
		}
		lines[i] = sb.String()
	}
	if !sorted {
		sort.Strings(lines)
	}
	return lines
}

func formatValue(v any, t types.DataType) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case types.Decimal128:
		return types.FormatDecimal(x, t.Scale)
	case float64:
		return strconv.FormatFloat(x, 'g', 6, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', 6, 32)
	case int32:
		if t.ID == types.Date {
			return types.FormatDate(x)
		}
		return strconv.FormatInt(int64(x), 10)
	case []byte:
		return string(x)
	default:
		return fmt.Sprint(x)
	}
}

// digest is the hex SHA-256 of a query's canonical result.
func digest(q int, res *photon.Result) string {
	h := sha256.New()
	for _, l := range canonical(res, ordered(q)) {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// computeOracle runs the 22 queries on the row engine over generated data
// at sf and returns each query's digest and row count.
func computeOracle(sf float64) (*oracle, error) {
	sess := photon.NewSession(photon.Config{Engine: photon.EngineDBR, Parallelism: 1})
	data := tpch.NewGen(sf).Generate()
	for _, name := range tpchTables {
		mt := memTable(data, name)
		sess.RegisterBatches(name, mt.Sch, mt.Batches)
	}
	o := &oracle{SF: sf, Engine: "row (EngineDBR)", Rows: map[string]int{}, Digest: map[string]string{}}
	for _, q := range tpch.QueryNumbers() {
		res, err := sess.SQL(tpch.Queries[q])
		if err != nil {
			return nil, fmt.Errorf("Q%d on the row engine: %w", q, err)
		}
		k := strconv.Itoa(q)
		o.Rows[k], o.Digest[k] = len(res.Rows), digest(q, res)
	}
	return o, nil
}

// writeOracle recomputes the digests and writes them to path.
func writeOracle(path string) error {
	o, err := computeOracle(oracleSF)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
