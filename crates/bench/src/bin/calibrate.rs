//! Clock-period calibration helper: failing-endpoint ratio per period,
//! rendered on the shared [`mbr_obs::table`] path.
use mbr_liberty::standard_library;
use mbr_obs::table::Table;
use mbr_sta::{DelayModel, Sta};

const PERIODS: [f64; 7] = [520.0, 560.0, 600.0, 650.0, 700.0, 760.0, 820.0];

fn main() {
    let lib = standard_library();
    let mut headers = vec![String::from("design")];
    headers.extend(PERIODS.iter().map(|p| format!("{p} ps")));
    let ncols = headers.len();
    let mut table = Table::new(headers).right_align(1..ncols);
    for spec in mbr_workloads::all_presets() {
        let design = spec.generate(&lib);
        let mut row = vec![spec.name.clone()];
        for period in PERIODS {
            let model = DelayModel {
                clock_period: period,
                ..spec.delay_model()
            };
            let sta = Sta::new(&design, &lib, model).unwrap();
            let r = sta.report();
            row.push(format!(
                "{:.0}%",
                100.0 * r.failing_endpoints() as f64 / r.endpoints().len() as f64
            ));
        }
        table.row(row);
    }
    print!("{}", table.render());
}
