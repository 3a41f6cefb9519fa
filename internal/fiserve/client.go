package fiserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ferrum/internal/harness"
)

// Client submits campaigns to a coordinator and waits for their results.
type Client struct {
	// Base is the coordinator root, "http://host:port".
	Base string
	// Tenant names the submitter for admission quotas ("" is a tenant too).
	Tenant string
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
	// PollInterval is the status poll spacing in Wait (default 50ms).
	PollInterval time.Duration
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// ErrRejected wraps a 429: the queue or the tenant quota is full. Callers
// can back off and resubmit.
var ErrRejected = errors.New("fiserve: submission rejected")

// Submit asks the coordinator to admit one campaign and returns its ID.
func (c *Client) Submit(spec harness.CampaignSpec) (string, error) {
	b, err := json.Marshal(SubmitRequest{Tenant: c.Tenant, Spec: spec})
	if err != nil {
		return "", err
	}
	resp, err := c.client().Post(c.Base+"/api/submit", "application/json", bytes.NewReader(b))
	if err != nil {
		return "", fmt.Errorf("fiserve: submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("%w: %s", ErrRejected, bytes.TrimSpace(msg))
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("fiserve: submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", fmt.Errorf("fiserve: submit: %w", err)
	}
	return sr.ID, nil
}

// Status fetches one campaign's current state.
func (c *Client) Status(id string) (CampaignStatus, error) {
	resp, err := c.client().Get(c.Base + "/api/campaigns/" + id)
	if err != nil {
		return CampaignStatus{}, fmt.Errorf("fiserve: status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return CampaignStatus{}, fmt.Errorf("fiserve: status: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return CampaignStatus{}, fmt.Errorf("fiserve: status: %w", err)
	}
	return st, nil
}

// Wait polls until the campaign leaves the running state and returns its
// final status; a failed campaign is an error carrying the campaign's own
// message.
func (c *Client) Wait(id string) (CampaignStatus, error) {
	poll := c.PollInterval
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case StateDone:
			return st, nil
		case StateFailed:
			return st, fmt.Errorf("fiserve: campaign %s failed: %s", id, st.Error)
		}
		time.Sleep(poll)
	}
}

// Run submits a spec and waits for the merged result.
func (c *Client) Run(spec harness.CampaignSpec) (CampaignStatus, error) {
	id, err := c.Submit(spec)
	if err != nil {
		return CampaignStatus{}, err
	}
	return c.Wait(id)
}
