package engine

import (
	"fmt"

	"github.com/qamarket/qamarket/internal/driver"
	"github.com/qamarket/qamarket/internal/sqldb"
)

// SelectDriver returns the vectorized engine over a copy of db; "vector"
// is the only name it knows. It stays only because benchmark/fed.go
// calls it: a node built from cluster.NodeConfig.DB already gets
// FromDB(DB), and the next change to the benchmark calls FromDB there
// and deletes this function.
func SelectDriver(name string, db *sqldb.DB) (driver.Driver, error) {
	if name != "vector" {
		return nil, fmt.Errorf("unknown driver %q (want vector)", name)
	}
	return FromDB(db), nil
}
