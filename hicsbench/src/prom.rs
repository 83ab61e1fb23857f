//! `GET /metrics` scrapes, through the repository's own client `Pool`,
//! and the per-window deltas the per-layer metrics are built from.

use hics_serve::Pool;
use std::collections::HashMap;
use std::time::Duration;

/// One exposition: every sample keyed by its full `name{labels}`.
#[derive(Debug, Default)]
pub struct Scrape(HashMap<String, f64>);

pub fn scrape(pool: &Pool) -> Scrape {
    let resp = pool
        .request("GET", "/metrics", None, Duration::from_secs(5))
        .expect("scrape /metrics");
    assert_eq!(resp.status, 200, "/metrics answered {}", resp.status);
    let text = resp.text().expect("exposition is UTF-8");
    Scrape(
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect(),
    )
}

impl Scrape {
    /// Sum of `name` over all its label variants (quantile lines excluded).
    fn total(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                !k.contains("quantile=")
                    && (k.as_str() == name
                        || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// The change of every series between two scrapes of one server.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Window increase of `name`, summed over label variants.
    pub fn count(&self, name: &str) -> f64 {
        self.after.total(name) - self.before.total(name)
    }

    /// Window increase of the exact series `key` (`name{labels}`).
    fn exact(&self, key: &str) -> f64 {
        let get = |s: &Scrape| s.0.get(key).copied().unwrap_or(0.0);
        get(self.after) - get(self.before)
    }

    /// Mean of a histogram over the window, in milliseconds (seconds
    /// histograms), summed over label variants.
    pub fn mean_ms(&self, hist: &str) -> f64 {
        ratio(
            self.count(&format!("{hist}_sum")) * 1e3,
            self.count(&format!("{hist}_count")),
        )
    }

    /// Mean of one labelled histogram series over the window, in ms.
    pub fn mean_ms_labelled(&self, hist: &str, labels: &str) -> f64 {
        ratio(
            self.exact(&format!("{hist}_sum{{{labels}}}")) * 1e3,
            self.exact(&format!("{hist}_count{{{labels}}}")),
        )
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
