//! README.md quotes the 8-device rows of the scheduler shoot-out. The
//! quote must stay a verbatim excerpt of the committed `COMPARISON.md`, so
//! a change that re-blesses the comparison has to update README too.

use std::path::PathBuf;

fn read(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

#[test]
fn readme_shootout_rows_are_verbatim_comparison_rows() {
    let readme = read("README.md");
    let comparison = read("COMPARISON.md");
    let excerpt: Vec<&str> = readme
        .lines()
        .skip_while(|line| *line != "<!-- excerpt of COMPARISON.md, \"## 8 device(s)\" -->")
        .skip(1)
        .take_while(|line| *line != "<!-- end of excerpt -->")
        .collect();
    assert!(excerpt.len() > 2, "README lost its shoot-out excerpt (or its markers)");
    let section: Vec<&str> = comparison
        .lines()
        .skip_while(|line| *line != "## 8 device(s)")
        .skip(1)
        .take_while(|line| !line.starts_with("## "))
        .collect();
    assert!(!section.is_empty(), "COMPARISON.md has no 8-device section");
    for row in excerpt {
        assert!(
            section.contains(&row),
            "README row is not in COMPARISON.md's 8-device section; copy it again:\n{row}"
        );
    }
}
