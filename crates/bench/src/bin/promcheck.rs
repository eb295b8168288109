//! Validate Prometheus text exposition — a file, stdin, or a live
//! `lipstick-serve` `/metrics` endpoint.
//!
//! CI's smoke step scrapes the self-test server through this binary so
//! a malformed exposition (bad name, sample before its TYPE line,
//! non-numeric value, broken histogram family) fails the build rather
//! than a dashboard three tools downstream.
//!
//! Usage:
//!   promcheck FILE [--require NAME]...          validate a saved exposition
//!   promcheck - [--require NAME]...             validate stdin
//!   promcheck --addr H:P [--require NAME]...    scrape http://H:P/metrics and validate
//!
//! Each `--require NAME` additionally asserts that a scalar sample with
//! that exact series name is present — how CI pins the heap-byte gauges
//! to the exposition. A histogram renders no sample under its bare
//! name, so for one its `NAME_count` series stands in.

use std::io::Read;

use lipstick_core::obs::{parse_plain_samples, validate_prometheus_text};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut required: Vec<String> = Vec::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--require" {
            let name = args
                .get(i + 1)
                .unwrap_or_else(|| usage("--require needs a series name"));
            required.push(name.clone());
            i += 2;
        } else {
            inputs.push(args[i].clone());
            i += 1;
        }
    }

    let text = match inputs.first().map(String::as_str) {
        Some("--addr") => {
            let addr = inputs
                .get(1)
                .unwrap_or_else(|| usage("--addr needs HOST:PORT"));
            let (status, body) = lipstick_serve::client::http_get(addr.as_str(), "/metrics")
                .unwrap_or_else(|e| fail(&format!("scrape {addr}: {e}")));
            if status != "HTTP/1.1 200 OK" {
                fail(&format!("scrape {addr}: {status}"));
            }
            body
        }
        Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| fail(&format!("stdin: {e}")));
            buf
        }
        Some(path) => {
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")))
        }
        None => usage("missing input"),
    };

    match validate_prometheus_text(&text) {
        Ok(()) => {
            let samples = parse_plain_samples(&text);
            for name in &required {
                if !samples.contains_key(name) && !samples.contains_key(&format!("{name}_count")) {
                    fail(&format!("required series missing: {name}"));
                }
            }
            println!(
                "ok: {} line(s), {} scalar sample(s), {} required series present",
                text.lines().count(),
                samples.len(),
                required.len()
            );
        }
        Err(e) => fail(&format!("invalid exposition: {e}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "promcheck: {msg}\nusage: promcheck FILE | promcheck - | promcheck --addr HOST:PORT \
         [--require NAME]..."
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("promcheck: {msg}");
    std::process::exit(1);
}
