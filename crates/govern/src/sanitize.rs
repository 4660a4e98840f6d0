//! Sanitization and anonymization before external release (§IX-B).
//!
//! "Internal staff hosting such projects carry out data sanitization or
//! anonymization tasks with the guidance of the curation and
//! cybersecurity staff before the data reaches external users."
//! Deterministic pseudonymization (salted hash) keeps joins possible
//! across released artifacts while severing identity.

/// Deterministic sanitizer with a per-release salt.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    salt: u64,
}

impl Sanitizer {
    /// New sanitizer with an explicit salt (one per release).
    pub fn new(salt: u64) -> Sanitizer {
        Sanitizer { salt }
    }

    fn hash(&self, input: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.salt;
        for b in input.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Pseudonymous user token ("u-3fa09c12").
    pub fn user_token(&self, user: u32) -> String {
        format!("u-{:08x}", self.hash(&format!("user:{user}")) as u32)
    }

    /// Scrub PII-looking substrings from free text: e-mail addresses
    /// (also inside parentheses) and `userNNN` / `user NNN` references.
    pub fn scrub_text(&self, text: &str) -> String {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let mut out: Vec<String> = Vec::with_capacity(tokens.len());
        let mut i = 0;
        while i < tokens.len() {
            let token = tokens[i];
            let inner = token.trim_matches(|c: char| "()[]{},.;:".contains(c));
            if inner.contains('@') {
                out.push(token.replace(inner, "[email]"));
                i += 1;
                continue;
            }
            // Two-token form: "user 15" (trailing punctuation survives).
            if token == "user" && i + 1 < tokens.len() {
                let raw = tokens[i + 1];
                let digits = raw.trim_end_matches(|c: char| !c.is_ascii_digit());
                if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) {
                    let suffix = &raw[digits.len()..];
                    out.push(format!(
                        "{}{}",
                        self.user_token(digits.parse().unwrap_or(0)),
                        suffix
                    ));
                    i += 2;
                    continue;
                }
            }
            // One-token form: "user15".
            if let Some(rest) = inner.strip_prefix("user") {
                if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                    out.push(token.replace(inner, &self.user_token(rest.parse().unwrap_or(0))));
                    i += 1;
                    continue;
                }
            }
            out.push(token.to_string());
            i += 1;
        }
        out.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_deterministic_per_salt() {
        let s = Sanitizer::new(42);
        assert_eq!(s.user_token(7), s.user_token(7));
        assert_ne!(s.user_token(7), s.user_token(8));
        // A different salt severs linkage between releases.
        let other = Sanitizer::new(43);
        assert_ne!(s.user_token(7), other.user_token(7));
    }

    #[test]
    fn tokens_do_not_leak_input() {
        let s = Sanitizer::new(1);
        let t = s.user_token(123_456);
        assert!(!t.contains("123456"));
    }

    #[test]
    fn scrub_replaces_emails_and_user_refs() {
        let s = Sanitizer::new(9);
        let scrubbed = s.scrub_text("ticket from alice@lab.gov about user42 on node7");
        assert!(!scrubbed.contains("alice@lab.gov"));
        assert!(scrubbed.contains("[email]"));
        assert!(!scrubbed.contains("user42"));
        assert!(scrubbed.contains("node7"), "non-PII tokens survive");
    }

    #[test]
    fn two_token_scrub_keeps_punctuation() {
        let s = Sanitizer::new(3);
        let out = s.scrub_text("blocked user 42, retrying");
        assert!(out.contains(','), "punctuation dropped: {out}");
        assert!(!out.contains("42"));
    }

    #[test]
    fn consistent_pseudonyms_allow_joins() {
        let s = Sanitizer::new(5);
        let a = s.scrub_text("user42 submitted");
        let b = s.scrub_text("user42 failed");
        let ta = a.split(' ').next().unwrap();
        let tb = b.split(' ').next().unwrap();
        assert_eq!(ta, tb, "same user maps to the same token within a release");
    }
}
