module khuzdul/bench

go 1.22

require khuzdul v0.0.0

replace khuzdul => ../
