module gstm/bench

go 1.24

require gstm v0.0.0

replace gstm => ../
