module nwsenv/bench

go 1.24

require nwsenv v0.0.0

replace nwsenv => ../
