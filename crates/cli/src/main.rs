//! `optimus-cli` — command-line front end to the Optimus suite.
//!
//! ```text
//! optimus-cli train --model gpt-175b --cluster a100-hdr --batch 64 --tp 8 --pp 8 --sp
//! optimus-cli infer --model llama2-70b --cluster h100-ndr --tp 8
//! optimus-cli serve --model llama2-13b --cluster a100-hdr --tp 2 --rate 4 --requests 200
//! optimus-cli load-sweep --model llama2-13b --tp-list 1,2,4 --min-rate 1 --max-rate 64 --points 8
//! optimus-cli memory --model gpt-530b --batch 280 --tp 8 --pp 35 --recompute full
//! optimus-cli sweep --model llama2-13b --cluster a100-hdr --batch 64 --max-gpus 64
//! optimus-cli list
//! ```

mod args;
mod commands;

fn main() {
    match commands::run(std::env::args().skip(1)) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(2);
        }
    }
}
